//! Per-connection pump logic.
//!
//! The ISM keeps one long-lived connection per external sensor. Each
//! connection gets a *pump* that (a) decodes incoming event batches and
//! forwards their records to the manager and (b) executes clock-sync poll
//! exchanges on the manager's behalf. Running the poll exchange *at the
//! pump* stamps `t_master_send` / `t_master_recv` right at the socket,
//! keeping manager scheduling delays out of the skew samples.
//!
//! Decoding at the pump is deliberate: the manager is one thread that
//! every record of every node passes through, so each batch is decoded
//! exactly once — validated and materialized in a single pass — on the
//! pump (a reactor shard, in the server) and crosses the manager queue as
//! owned records. The manager only dedups, merges and delivers.
//!
//! Two drivers share this logic through `PumpIo`: the threaded
//! [`run_pump`] (one thread per connection — used by tests and embedders)
//! and the server's poll-based reactor (`crate::reactor`), which
//! multiplexes every connection over a small bounded thread pool.

use brisk_clock::{Clock, SkewSample};
use brisk_core::{BriskError, EventRecord, FlowConfig, NodeId, Result, TraceStage, UtcMicros};
use brisk_net::Connection;
use brisk_proto::Message;
use brisk_telemetry::{Counter, Registry};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

    /// The per-connection credit budget to grant, or `None` when credit
    /// flow control is disabled.
    pub fn credit(&self) -> Option<u64> {
        match self.cfg.credit_records {
            0 => None,
            n => Some(n),
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

    /// Record one `Hello` rejected because its node id was already
    /// claimed by a live connection.
    pub fn note_rejected_hello(&self) {
        self.rejected_hellos.fetch_add(1, Ordering::Relaxed);
    }

    /// `Hello`s rejected for claiming an already-active node id.
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
            "Hellos rejected for claiming a node id already served by a live connection",
            &[],
            move || log.rejected_hellos(),
        );
    }
}

/// Per-connection malformed-frame policy handed to [`run_pump`].
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
    /// Acknowledge every sequenced batch up to `seq` (protocol v2): the
    /// manager issues this once the core accepted (or dedup-dropped) the
    /// batch, and the pump turns it into a wire [`Message::BatchAck`].
    Ack {
        /// Cumulative acknowledged sequence number.
        seq: u64,
        /// Replenished credit budget to piggyback (protocol v3): the
        /// maximum number of unacknowledged records the sender may have
        /// in flight from now on. `None` on connections without credit
        /// flow control (v1/v2 peers, or credit disabled).
        credit: Option<u64>,
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
        /// Batch sequence number (`None` on v1 connections).
        seq: Option<u64>,
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
    /// The peer proved liveness with a [`Message::Heartbeat`] (protocol
    /// v3): no payload, no reply — just evidence the EXS is alive, so
    /// the manager's stale-node eviction timer resets.
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
    version: u32,
    cmd_tx: Sender<PumpCommand>,
    /// Invoked after every queued command. Reactor-driven pumps use it
    /// to kick their shard out of `poll` so commands are serviced
    /// immediately rather than on the next timeout; threaded pumps
    /// leave it `None` (they poll their command channel every pass).
    wake: Option<Arc<dyn Fn() + Send + Sync>>,
    /// `None` for pumps that run inline on their greeter thread (the
    /// accept path); the manager then relies on the `Disconnected` event
    /// rather than a join for teardown.
    join: Option<std::thread::JoinHandle<()>>,
}

impl PumpHandle {
    /// This pump instance's identity (unique across the process).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The protocol version negotiated on this pump's connection; the
    /// manager attaches credit to acks only when this is ≥ 3.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Attach the post-command wake callback (reactor pumps only).
    pub(crate) fn attach_wake(&mut self, wake: Arc<dyn Fn() + Send + Sync>) {
        self.wake = Some(wake);
    }

    /// Send a command; returns `false` if the pump is gone.
    pub fn command(&self, cmd: PumpCommand) -> bool {
        let sent = self.cmd_tx.send(cmd).is_ok();
        if sent {
            if let Some(wake) = &self.wake {
                wake();
            }
        }
        sent
    }

    /// Wait for the pump thread to finish (no-op for greeter-run pumps).
    pub fn join(self) {
        if let Some(join) = self.join {
            let _ = join.join();
        }
    }
}

/// How long a pump waits for one `SyncReply` before skipping the sample.
const SAMPLE_TIMEOUT: Duration = Duration::from_secs(1);
/// Pump receive granularity while idle.
const IDLE_RECV: Duration = Duration::from_millis(5);

/// Perform the server-side handshake: read the `Hello`, negotiate the
/// protocol version and return `(node, version)`. v2+ peers get a
/// `HelloAck` carrying the negotiated version (v1 peers would not
/// understand the message — its absence *is* the v1 signal); `credit` is
/// the initial flow-control budget and rides along only when the
/// negotiated version is ≥ 3. Call before [`spawn_pump`].
pub fn handshake(
    conn: &mut Box<dyn Connection>,
    timeout: Duration,
    credit: Option<u64>,
) -> Result<(NodeId, u32)> {
    let deadline = Instant::now() + timeout;
    loop {
        let budget = deadline.saturating_duration_since(Instant::now());
        if budget.is_zero() {
            return Err(BriskError::Protocol("handshake timed out".into()));
        }
        match conn.recv(Some(budget))? {
            Some(frame) => {
                return match Message::decode(&frame)? {
                    Message::Hello { node, version } => {
                        let version = brisk_proto::negotiate(version);
                        if version >= 2 {
                            let credit = if version >= 3 { credit } else { None };
                            conn.send(&Message::HelloAck { version, credit }.encode())?;
                        }
                        Ok((node, version))
                    }
                    other => Err(BriskError::Protocol(format!(
                        "expected Hello, got {other:?}"
                    ))),
                }
            }
            None => continue,
        }
    }
}

/// Spawn a pump for a connection that already completed [`handshake`],
/// assuming the current protocol version was negotiated.
pub fn spawn_pump(
    node: NodeId,
    conn: Box<dyn Connection>,
    clock: Arc<dyn Clock>,
    events: Sender<PumpEvent>,
) -> Result<PumpHandle> {
    spawn_pump_with_counter(node, conn, clock, events, None)
}

/// Like [`spawn_pump`], with an optional counter incremented for every
/// event this pump enqueues toward the manager. Paired with a
/// manager-side "processed" counter it yields the manager queue depth.
pub fn spawn_pump_with_counter(
    node: NodeId,
    conn: Box<dyn Connection>,
    clock: Arc<dyn Clock>,
    events: Sender<PumpEvent>,
    enqueued: Option<Arc<Counter>>,
) -> Result<PumpHandle> {
    let (mut handle, cmd_rx) = pump_channel(node, brisk_proto::VERSION);
    let id = handle.id;
    let join = std::thread::Builder::new()
        .name(format!("brisk-pump-{node}"))
        .spawn(move || {
            run_pump(
                id,
                node,
                conn,
                clock,
                events,
                cmd_rx,
                enqueued,
                None,
                ProtocolGuard::default(),
            )
        })
        .map_err(BriskError::Io)?;
    handle.join = Some(join);
    Ok(handle)
}

/// Build the handle/receiver pair for a pump that will run *inline* on
/// the current thread (the greeter pattern: the accept loop hands the
/// connection to a per-connection thread that handshakes and then calls
/// [`run_pump`] itself). `version` is the negotiated protocol version
/// from [`handshake`]. The handle carries no join — the manager learns
/// of the pump's death through its `Disconnected` event.
pub fn pump_channel(node: NodeId, version: u32) -> (PumpHandle, Receiver<PumpCommand>) {
    let (cmd_tx, cmd_rx) = unbounded();
    let handle = PumpHandle {
        node,
        id: NEXT_PUMP_ID.fetch_add(1, Ordering::Relaxed),
        version,
        cmd_tx,
        wake: None,
        join: None,
    };
    (handle, cmd_rx)
}

/// Drive one pump to completion on the current thread. `id` must be the
/// [`PumpHandle::id`] of the handle built by [`pump_channel`], so the
/// final `Disconnected` event names the right pump instance. `flow`
/// makes the pump defer socket reads while the shared manager-queue
/// bound is exceeded; `guard` sets the malformed-frame quarantine
/// policy.
#[allow(clippy::too_many_arguments)]
pub fn run_pump(
    id: u64,
    node: NodeId,
    conn: Box<dyn Connection>,
    clock: Arc<dyn Clock>,
    events: Sender<PumpEvent>,
    cmd_rx: Receiver<PumpCommand>,
    enqueued: Option<Arc<Counter>>,
    flow: Option<Arc<FlowState>>,
    guard: ProtocolGuard,
) {
    let mut pump = Pump {
        conn,
        cmd_rx,
        io: PumpIo::new(node, id, clock, events, enqueued, flow, guard),
    };
    pump.run();
}

/// What [`PumpIo::on_frame`] did with a frame.
pub(crate) enum FrameOutcome {
    /// Fully handled: forwarded to the manager, quarantined, or dropped.
    Consumed,
    /// A `SyncReply` arrived. The caller owns the sync state machine
    /// (blocking exchange in [`run_pump`], per-connection state in the
    /// reactor), so the reply is surfaced instead of swallowed.
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
/// Shared by the threaded [`run_pump`] and the poll reactor
/// (`crate::reactor`) so both paths accept — and reject — exactly the
/// same traffic.
pub(crate) struct PumpIo {
    pub(crate) node: NodeId,
    pub(crate) id: u64,
    pub(crate) clock: Arc<dyn Clock>,
    events: Sender<PumpEvent>,
    enqueued: Option<Arc<Counter>>,
    pub(crate) flow: Option<Arc<FlowState>>,
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
        flow: Option<Arc<FlowState>>,
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
        seq: Option<u64>,
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
        if let Some(flow) = &self.flow {
            flow.add(records.len() as u64);
        }
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

struct Pump {
    conn: Box<dyn Connection>,
    cmd_rx: Receiver<PumpCommand>,
    io: PumpIo,
}

impl Pump {
    fn run(&mut self) {
        loop {
            // Commands first: sync traffic must not starve behind batches.
            match self.cmd_rx.try_recv() {
                Ok(PumpCommand::SyncRound { round, samples }) => {
                    if self.do_sync_round(round, samples).is_err() {
                        break;
                    }
                    continue;
                }
                Ok(PumpCommand::Adjust { round, advance_us }) => {
                    if self
                        .conn
                        .send(&Message::SyncAdjust { round, advance_us }.encode())
                        .is_err()
                    {
                        break;
                    }
                    continue;
                }
                Ok(PumpCommand::Ack { seq, credit }) => {
                    if self
                        .conn
                        .send(&Message::BatchAck { seq, credit }.encode())
                        .is_err()
                    {
                        break;
                    }
                    continue;
                }
                Ok(PumpCommand::Shutdown) => {
                    let _ = self.conn.send(&Message::Shutdown.encode());
                    // Drain whatever the EXS flushed before its own
                    // Shutdown so no records are lost at teardown.
                    let deadline = Instant::now() + Duration::from_secs(2);
                    while Instant::now() < deadline {
                        match self.conn.recv(Some(IDLE_RECV)) {
                            Ok(Some(frame)) => {
                                if self.io.on_frame(frame).is_err() {
                                    break;
                                }
                            }
                            Ok(None) => continue,
                            Err(_) => break,
                        }
                    }
                    break;
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => break,
            }
            // Backpressure: while the manager queue holds more records
            // than the configured bound, stop reading the socket.
            // Commands above still run, so sync rounds and shutdown make
            // progress; the sender's unsent traffic piles up in the
            // transport and its credit dries up next.
            if let Some(flow) = &self.io.flow {
                if flow.over_limit() {
                    flow.note_deferral();
                    std::thread::sleep(IDLE_RECV);
                    continue;
                }
            }
            // Then inbound traffic. A stray SyncReply outside a round is
            // stale — dropped, like any other consumed frame.
            match self.conn.recv(Some(IDLE_RECV)) {
                Ok(Some(frame)) => {
                    if self.io.on_frame(frame).is_err() {
                        break;
                    }
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
        self.io.send_event(PumpEvent::Disconnected {
            node: self.io.node,
            id: self.io.id,
        });
    }

    fn do_sync_round(&mut self, round: u64, samples: u32) -> Result<()> {
        let mut collected = Vec::with_capacity(samples as usize);
        'sampling: for sample in 0..samples {
            let t0 = self.io.clock.now();
            self.conn.send(
                &Message::SyncPoll {
                    round,
                    sample,
                    master_send: t0,
                }
                .encode(),
            )?;
            let deadline = Instant::now() + SAMPLE_TIMEOUT;
            loop {
                let budget = deadline.saturating_duration_since(Instant::now());
                if budget.is_zero() {
                    continue 'sampling; // sample lost; move on
                }
                match self.conn.recv(Some(budget))? {
                    None => continue 'sampling,
                    // Batches keep flowing during the exchange, and the
                    // quarantine budget applies mid-exchange too: both
                    // live inside `on_frame`.
                    Some(frame) => match self.io.on_frame(frame)? {
                        FrameOutcome::SyncReply {
                            round: r,
                            sample: s,
                            slave_time,
                        } if r == round && s == sample => {
                            let t1 = self.io.clock.now();
                            collected.push(SkewSample {
                                t_master_send: t0,
                                t_slave: slave_time,
                                t_master_recv: t1,
                            });
                            break;
                        }
                        // Stale/mismatched reply or consumed frame.
                        _ => {}
                    },
                }
            }
        }
        self.io.send_event(PumpEvent::SyncSamples {
            node: self.io.node,
            round,
            samples: collected,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::SystemClock;
    use brisk_core::{EventTypeId, SensorId};
    use brisk_net::{MemTransport, Transport};

    fn mem_pair() -> (Box<dyn Connection>, Box<dyn Connection>) {
        let t = MemTransport::new();
        let mut l = t.listen("x").unwrap();
        let c = t.connect("x").unwrap();
        let s = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        (s, c)
    }

    #[test]
    fn handshake_accepts_hello_only() {
        let (mut server, mut client) = mem_pair();
        client
            .send(
                &Message::Hello {
                    node: NodeId(5),
                    version: brisk_proto::VERSION,
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(
            handshake(&mut server, Duration::from_secs(1), None).unwrap(),
            (NodeId(5), brisk_proto::VERSION)
        );
        // A v2+ peer is told the negotiated version.
        let frame = client.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap(),
            Message::HelloAck {
                version: brisk_proto::VERSION,
                credit: None
            }
        );

        let (mut server, mut client) = mem_pair();
        client.send(&Message::Shutdown.encode()).unwrap();
        assert!(handshake(&mut server, Duration::from_millis(100), None).is_err());
    }

    #[test]
    fn handshake_grants_credit_to_v3_peers_only() {
        // A v3 peer receives the initial credit budget in its HelloAck.
        let (mut server, mut client) = mem_pair();
        client
            .send(
                &Message::Hello {
                    node: NodeId(5),
                    version: brisk_proto::VERSION,
                }
                .encode(),
            )
            .unwrap();
        handshake(&mut server, Duration::from_secs(1), Some(512)).unwrap();
        let frame = client.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap(),
            Message::HelloAck {
                version: brisk_proto::VERSION,
                credit: Some(512)
            }
        );

        // A v2 peer cannot decode the credit tag: the grant is dropped.
        let (mut server, mut client) = mem_pair();
        client
            .send(
                &Message::Hello {
                    node: NodeId(5),
                    version: 2,
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(
            handshake(&mut server, Duration::from_secs(1), Some(512)).unwrap(),
            (NodeId(5), 2)
        );
        let frame = client.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap(),
            Message::HelloAck {
                version: 2,
                credit: None
            }
        );
    }

    #[test]
    fn handshake_with_v1_peer_sends_no_hello_ack() {
        let (mut server, mut client) = mem_pair();
        client
            .send(
                &Message::Hello {
                    node: NodeId(5),
                    version: 1,
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(
            handshake(&mut server, Duration::from_secs(1), Some(512)).unwrap(),
            (NodeId(5), 1)
        );
        // No HelloAck: a v1 peer could not decode it.
        assert!(client
            .recv(Some(Duration::from_millis(50)))
            .unwrap()
            .is_none());
    }

    #[test]
    fn handshake_times_out() {
        let (mut server, _client) = mem_pair();
        assert!(handshake(&mut server, Duration::from_millis(30), None).is_err());
    }

    #[test]
    fn pump_forwards_batches_and_reports_disconnect() {
        let (server, mut client) = mem_pair();
        let (tx, rx) = unbounded();
        let pump = spawn_pump(NodeId(5), server, Arc::new(SystemClock), tx).unwrap();
        let rec = EventRecord::new(
            NodeId(5),
            SensorId(0),
            EventTypeId(1),
            0,
            UtcMicros::from_micros(9),
            vec![],
        )
        .unwrap();
        client
            .send(
                &Message::EventBatch {
                    node: NodeId(5),
                    seq: Some(1),
                    records: vec![rec.clone()],
                }
                .encode(),
            )
            .unwrap();
        match rx.recv_timeout(Duration::from_secs(1)).unwrap() {
            PumpEvent::Batch {
                node,
                id,
                seq,
                records,
                ..
            } => {
                assert_eq!(node, NodeId(5));
                assert_eq!(id, pump.id());
                assert_eq!(seq, Some(1));
                // The pump forwards the records decoded.
                assert_eq!(records, vec![rec]);
            }
            other => panic!("unexpected {other:?}"),
        }
        drop(client);
        match rx.recv_timeout(Duration::from_secs(1)).unwrap() {
            PumpEvent::Disconnected { node, id } => {
                assert_eq!(node, NodeId(5));
                assert_eq!(id, pump.id());
            }
            other => panic!("unexpected {other:?}"),
        }
        pump.join();
    }

    #[test]
    fn spoofed_batch_node_kills_connection() {
        let (server, mut client) = mem_pair();
        let (tx, rx) = unbounded();
        let pump = spawn_pump(NodeId(5), server, Arc::new(SystemClock), tx).unwrap();
        // The connection said Hello as node 5; a batch claiming node 6 is
        // spoofed and must end the connection without being forwarded.
        client
            .send(
                &Message::EventBatch {
                    node: NodeId(6),
                    seq: Some(1),
                    records: vec![],
                }
                .encode(),
            )
            .unwrap();
        match rx.recv_timeout(Duration::from_secs(1)).unwrap() {
            PumpEvent::Disconnected { node, .. } => assert_eq!(node, NodeId(5)),
            other => panic!("spoofed batch must not be forwarded, got {other:?}"),
        }
        pump.join();
    }

    #[test]
    fn ack_command_reaches_client() {
        let (server, mut client) = mem_pair();
        let (tx, _rx) = unbounded();
        let pump = spawn_pump(NodeId(5), server, Arc::new(SystemClock), tx).unwrap();
        pump.command(PumpCommand::Ack {
            seq: 42,
            credit: Some(64),
        });
        let frame = client.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap(),
            Message::BatchAck {
                seq: 42,
                credit: Some(64)
            }
        );
        pump.command(PumpCommand::Shutdown);
        pump.join();
    }

    #[test]
    fn over_limit_flow_defers_socket_reads_but_not_commands() {
        let flow = FlowState::new(FlowConfig {
            credit_records: 64,
            max_queued_records: 1,
            shed_unmarked: false,
        });
        flow.add(10); // some other pump filled the manager queue
        let (server, mut client) = mem_pair();
        let (tx, rx) = unbounded();
        let (handle, cmd_rx) = pump_channel(NodeId(5), brisk_proto::VERSION);
        let id = handle.id();
        let flow2 = Arc::clone(&flow);
        let join = std::thread::spawn(move || {
            run_pump(
                id,
                NodeId(5),
                server,
                Arc::new(SystemClock),
                tx,
                cmd_rx,
                None,
                Some(flow2),
                ProtocolGuard::default(),
            )
        });
        client
            .send(
                &Message::EventBatch {
                    node: NodeId(5),
                    seq: Some(1),
                    records: vec![],
                }
                .encode(),
            )
            .unwrap();
        // The batch stays in the transport while the queue is over its
        // bound...
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        // ...but manager commands are still serviced (no sync deadlock).
        assert!(handle.command(PumpCommand::Ack {
            seq: 7,
            credit: Some(64)
        }));
        let frame = client.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap(),
            Message::BatchAck {
                seq: 7,
                credit: Some(64)
            }
        );
        assert!(flow.deferrals() > 0);
        // Once the manager drains the queue the deferred batch flows.
        flow.sub(10);
        match rx.recv_timeout(Duration::from_secs(1)).unwrap() {
            PumpEvent::Batch { seq, .. } => assert_eq!(seq, Some(1)),
            other => panic!("unexpected {other:?}"),
        }
        handle.command(PumpCommand::Shutdown);
        drop(client);
        join.join().unwrap();
    }

    /// Run a pump on its own thread with an explicit quarantine policy.
    fn spawn_guarded(
        server: Box<dyn Connection>,
        guard: ProtocolGuard,
    ) -> (PumpHandle, Receiver<PumpEvent>, std::thread::JoinHandle<()>) {
        let (tx, rx) = unbounded();
        let (handle, cmd_rx) = pump_channel(NodeId(5), brisk_proto::VERSION);
        let id = handle.id();
        let join = std::thread::spawn(move || {
            run_pump(
                id,
                NodeId(5),
                server,
                Arc::new(SystemClock),
                tx,
                cmd_rx,
                None,
                None,
                guard,
            )
        });
        (handle, rx, join)
    }

    #[test]
    fn malformed_frames_are_quarantined_within_budget() {
        let (server, mut client) = mem_pair();
        let log = QuarantineLog::new();
        let (_handle, rx, join) = spawn_guarded(
            server,
            ProtocolGuard {
                budget: 2,
                log: Some(Arc::clone(&log)),
            },
        );
        // Two garbage frames fit inside the budget: the connection lives
        // and a valid batch still flows afterwards.
        client.send(&[0xde, 0xad, 0xbe, 0xef]).unwrap();
        client.send(b"not a brisk frame").unwrap();
        client
            .send(
                &Message::EventBatch {
                    node: NodeId(5),
                    seq: Some(1),
                    records: vec![],
                }
                .encode(),
            )
            .unwrap();
        match rx.recv_timeout(Duration::from_secs(1)).unwrap() {
            PumpEvent::Batch { seq, .. } => assert_eq!(seq, Some(1)),
            other => panic!("batch must survive quarantined garbage, got {other:?}"),
        }
        assert_eq!(log.frames(), 2);
        assert_eq!(log.disconnects(), 0);
        // The third garbage frame exhausts the budget: disconnect.
        client.send(&[0xff; 8]).unwrap();
        match rx.recv_timeout(Duration::from_secs(1)).unwrap() {
            PumpEvent::Disconnected { node, .. } => assert_eq!(node, NodeId(5)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(log.frames(), 3);
        assert_eq!(log.disconnects(), 1);
        let samples = log.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].node, NodeId(5));
        assert_eq!(samples[0].head_hex, "deadbeef");
        assert!(!samples[0].error.is_empty());
        join.join().unwrap();
    }

    #[test]
    fn zero_budget_drops_connection_on_first_bad_frame() {
        let (server, mut client) = mem_pair();
        let log = QuarantineLog::new();
        let (_handle, rx, join) = spawn_guarded(
            server,
            ProtocolGuard {
                budget: 0,
                log: Some(Arc::clone(&log)),
            },
        );
        client.send(&[0x00]).unwrap();
        match rx.recv_timeout(Duration::from_secs(1)).unwrap() {
            PumpEvent::Disconnected { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(log.frames(), 1);
        assert_eq!(log.disconnects(), 1);
        join.join().unwrap();
    }

    #[test]
    fn heartbeat_is_forwarded_as_liveness() {
        let (server, mut client) = mem_pair();
        let (tx, rx) = unbounded();
        let pump = spawn_pump(NodeId(5), server, Arc::new(SystemClock), tx).unwrap();
        client.send(&Message::Heartbeat.encode()).unwrap();
        match rx.recv_timeout(Duration::from_secs(1)).unwrap() {
            PumpEvent::Heartbeat { node, id } => {
                assert_eq!(node, NodeId(5));
                assert_eq!(id, pump.id());
            }
            other => panic!("unexpected {other:?}"),
        }
        pump.command(PumpCommand::Shutdown);
        pump.join();
    }

    #[test]
    fn sync_round_collects_samples_while_batches_flow() {
        let (server, mut client) = mem_pair();
        let (tx, rx) = unbounded();
        let pump = spawn_pump(NodeId(2), server, Arc::new(SystemClock), tx).unwrap();
        // Slave side: answer 3 polls, interleaving a batch.
        let slave = std::thread::spawn(move || {
            let mut answered = 0;
            while answered < 3 {
                if let Ok(Some(frame)) = client.recv(Some(Duration::from_secs(1))) {
                    match Message::decode(&frame).unwrap() {
                        Message::SyncPoll {
                            round,
                            sample,
                            master_send,
                        } => {
                            if answered == 1 {
                                client
                                    .send(
                                        &Message::EventBatch {
                                            node: NodeId(2),
                                            seq: Some(1),
                                            records: vec![],
                                        }
                                        .encode(),
                                    )
                                    .unwrap();
                            }
                            client
                                .send(
                                    &Message::SyncReply {
                                        round,
                                        sample,
                                        master_send,
                                        slave_time: UtcMicros::now(),
                                    }
                                    .encode(),
                                )
                                .unwrap();
                            answered += 1;
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            client
        });
        assert!(pump.command(PumpCommand::SyncRound {
            round: 9,
            samples: 3
        }));
        let mut batches = 0;
        let mut samples = None;
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
                PumpEvent::Batch { .. } => batches += 1,
                PumpEvent::SyncSamples {
                    node,
                    round,
                    samples: s,
                } => {
                    assert_eq!(node, NodeId(2));
                    assert_eq!(round, 9);
                    samples = Some(s);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(batches, 1);
        let samples = samples.expect("sync samples event");
        assert_eq!(samples.len(), 3);
        for s in samples {
            assert!(s.rtt_us() >= 0);
        }
        drop(slave.join().unwrap());
        pump.command(PumpCommand::Shutdown);
        pump.join();
    }

    #[test]
    fn adjust_command_reaches_slave() {
        let (server, mut client) = mem_pair();
        let (tx, _rx) = unbounded();
        let pump = spawn_pump(NodeId(2), server, Arc::new(SystemClock), tx).unwrap();
        pump.command(PumpCommand::Adjust {
            round: 1,
            advance_us: 123,
        });
        let frame = client.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap(),
            Message::SyncAdjust {
                round: 1,
                advance_us: 123
            }
        );
        pump.command(PumpCommand::Shutdown);
        pump.join();
    }
}
