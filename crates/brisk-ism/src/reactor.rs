//! Poll-based connection reactor.
//!
//! The server's accept loop used to spawn one pump thread per EXS
//! connection; a thousand mostly-idle sensors meant a thousand sleeping
//! threads. The reactor replaces that with a small bounded pool: each
//! *shard* thread owns a set of connections and multiplexes all of their
//! sockets through one [`Poller`] (`poll(2)` — see `brisk_net::poll`),
//! driving handshakes, batch ingest, heartbeats, credit acks, clock-sync
//! exchanges and fault-injected transports alike.
//!
//! Per-connection protocol behavior is not reimplemented here: every
//! frame goes through the same [`PumpIo`] the threaded [`run_pump`] path
//! uses, so the reactor accepts and rejects exactly the traffic a
//! dedicated pump thread would. What the reactor adds is scheduling:
//!
//! * Connections with a kernel fd are read only when `poll` reports them
//!   readable. Fd-less connections (the in-memory transports used by
//!   tests and the simulator) cannot be polled, so while any are present
//!   the shard falls back to a short tick and zero-timeout `recv` probes.
//! * Manager commands (acks, credit grants, sync rounds, shutdown) are
//!   queued per connection; [`PumpHandle::command`] fires the shard's
//!   [`Waker`] so a sleeping `poll` services them immediately.
//! * The clock-sync poll exchange, which the threaded pump runs as a
//!   blocking request/reply loop, becomes an explicit state machine
//!   ([`SyncState`]) so one slow slave cannot stall its shard.
//! * EXS→ISM flow control keeps its semantics: while the shared manager
//!   queue is over its bound, running connections are excluded from the
//!   poll set (deferred), while greetings, teardown drains and manager
//!   commands still make progress.

use crate::pump::{
    pump_channel, FlowState, FrameOutcome, ProtocolGuard, PumpCommand, PumpEvent, PumpHandle,
    PumpIo, QuarantineLog,
};
use brisk_clock::{Clock, SkewSample};
use brisk_core::{BriskError, NodeId, Result, UtcMicros};
use brisk_net::{poll_in, Connection, PollFd, Poller, Waker, POLLERR, POLLHUP, POLLIN};
use brisk_proto::Message;
use brisk_telemetry::Counter;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a fresh connection may sit without completing its `Hello`.
const GREETING_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a shut-down connection keeps draining late batches.
const CLOSING_DRAIN: Duration = Duration::from_secs(2);
/// How long one `SyncPoll` waits for its reply before the sample is lost.
const SAMPLE_TIMEOUT: Duration = Duration::from_secs(1);
/// Shard tick while fd-less connections need recv probes.
const FDLESS_TICK: Duration = Duration::from_millis(1);
/// Shard tick while flow control is deferring socket reads (the manager
/// draining its queue does not fire a waker, so the shard re-checks).
const DEFER_TICK: Duration = Duration::from_millis(5);
/// Shard tick when every event source can interrupt `poll` on its own.
const IDLE_TICK: Duration = Duration::from_millis(100);
/// Frames read from one connection per pass before yielding to the rest
/// of the shard — bounds how long one firehose sensor can monopolize it.
const MAX_FRAMES_PER_PASS: usize = 32;

/// Which node ids are currently served by a live connection, and by
/// which pump. Shared across every shard of a server so a second `Hello`
/// claiming an already-active node is rejected at the greeting instead of
/// racing the first connection's session state (two pumps stamping the
/// same node id would interleave batches, corrupt per-node sequence
/// tracking, and let a misconfigured sensor silently hijack another's
/// stream).
#[derive(Default)]
pub(crate) struct ActiveNodes {
    map: Mutex<HashMap<NodeId, u64>>,
}

impl ActiveNodes {
    /// Claim `node` for pump `id`. `false` when another live connection
    /// already holds it.
    fn try_claim(&self, node: NodeId, id: u64) -> bool {
        let mut map = self.map.lock();
        match map.get(&node) {
            Some(_) => false,
            None => {
                map.insert(node, id);
                true
            }
        }
    }

    /// Release `node` if (and only if) pump `id` still holds it — a
    /// later claimant must not be evicted by a stale release.
    fn release(&self, node: NodeId, id: u64) {
        let mut map = self.map.lock();
        if map.get(&node) == Some(&id) {
            map.remove(&node);
        }
    }
}

/// Everything a shard needs to turn an anonymous socket into a pump.
#[derive(Clone)]
pub(crate) struct ReactorConfig {
    /// Master clock for receive stamps and sync exchanges.
    pub clock: Arc<dyn Clock>,
    /// Event stream into the manager.
    pub events: Sender<PumpEvent>,
    /// Where freshly-greeted connections' handles are announced.
    pub pumps: Sender<PumpHandle>,
    /// Counts events enqueued toward the manager (queue-depth telemetry).
    pub enqueued: Option<Arc<Counter>>,
    /// Shared EXS→ISM flow-control state, if flow control is on.
    pub flow: Option<Arc<FlowState>>,
    /// Undecodable frames tolerated per connection before disconnect.
    pub error_budget: u32,
    /// Shared malformed-frame quarantine log.
    pub quarantine: Option<Arc<QuarantineLog>>,
    /// Live node-id claims, shared across the server's shards.
    pub active: Arc<ActiveNodes>,
}

/// A bounded pool of reactor shards; the server registers every accepted
/// connection here instead of spawning a thread for it.
pub(crate) struct ReactorPool {
    shards: Vec<Shard>,
    next: AtomicUsize,
    stop: Arc<AtomicBool>,
}

struct Shard {
    conn_tx: Sender<Box<dyn Connection>>,
    waker: Waker,
    join: std::sync::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ReactorPool {
    /// Spawn `threads` shard threads (at least one).
    pub(crate) fn spawn(threads: usize, cfg: ReactorConfig) -> Result<ReactorPool> {
        let threads = threads.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let mut shards = Vec::with_capacity(threads);
        for i in 0..threads {
            let poller = Poller::new().map_err(BriskError::Io)?;
            let waker = poller.waker();
            let (conn_tx, conn_rx) = unbounded();
            let ctx = cfg.clone();
            let stop = Arc::clone(&stop);
            let join = std::thread::Builder::new()
                .name(format!("brisk-reactor-{i}"))
                .spawn(move || run_shard(ctx, conn_rx, poller, stop))
                .map_err(BriskError::Io)?;
            shards.push(Shard {
                conn_tx,
                waker,
                join: std::sync::Mutex::new(Some(join)),
            });
        }
        Ok(ReactorPool {
            shards,
            next: AtomicUsize::new(0),
            stop,
        })
    }

    /// Hand a fresh (pre-handshake) connection to a shard, round-robin.
    pub(crate) fn register(&self, conn: Box<dyn Connection>) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[i];
        if shard.conn_tx.send(conn).is_ok() {
            shard.waker.wake();
        }
    }

    /// Stop every shard and join its thread. Call only after the manager
    /// has finished its shutdown drain: live connections are dropped
    /// without further events.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.waker.wake();
        }
        for shard in &self.shards {
            let join = shard.join.lock().ok().and_then(|mut j| j.take());
            if let Some(join) = join {
                let _ = join.join();
            }
        }
    }
}

/// One in-flight clock-sync exchange, unrolled from the threaded pump's
/// blocking loop into poll-driven state.
struct SyncState {
    round: u64,
    total: u32,
    next_sample: u32,
    outstanding: Option<Outstanding>,
    collected: Vec<SkewSample>,
}

struct Outstanding {
    sample: u32,
    t0: UtcMicros,
    deadline: Instant,
}

impl SyncState {
    fn new(round: u64, samples: u32) -> SyncState {
        SyncState {
            round,
            total: samples,
            next_sample: 0,
            outstanding: None,
            collected: Vec::with_capacity(samples as usize),
        }
    }

    /// Record a reply if it matches the outstanding poll; stale or
    /// mismatched replies are dropped, like the threaded pump does.
    fn on_reply(&mut self, round: u64, sample: u32, slave_time: UtcMicros, io: &PumpIo) {
        match &self.outstanding {
            Some(out) if self.round == round && out.sample == sample => {
                let t0 = out.t0;
                self.outstanding = None;
                self.collected.push(SkewSample {
                    t_master_send: t0,
                    t_slave: slave_time,
                    t_master_recv: io.clock.now(),
                });
            }
            _ => {}
        }
    }
}

/// A connection that completed its greeting and serves a node.
struct Running {
    io: PumpIo,
    cmd_rx: Receiver<PumpCommand>,
    sync: Option<SyncState>,
}

enum State {
    /// Accepted but not yet identified: waiting for `Hello`.
    Greeting { deadline: Instant },
    /// Greeted; batches, heartbeats, commands and sync exchanges flow.
    Running(Running),
    /// `Shutdown` sent; draining the EXS's final flush so no records are
    /// lost at teardown, then reporting `Disconnected`.
    Closing { io: PumpIo, deadline: Instant },
}

struct Driver {
    conn: Box<dyn Connection>,
    state: State,
    dead: bool,
}

/// How the read pass treats one driver this iteration.
enum ReadMode {
    /// Has a kernel fd at this slot in the poll set; read on readiness.
    Polled(usize),
    /// Fd-less: probe with a zero-timeout recv every pass.
    Always,
    /// Deferred (flow control) or dead: do not read.
    Skip,
}

impl Driver {
    fn new(conn: Box<dyn Connection>) -> Driver {
        Driver {
            conn,
            state: State::Greeting {
                deadline: Instant::now() + GREETING_TIMEOUT,
            },
            dead: false,
        }
    }

    fn is_running(&self) -> bool {
        matches!(self.state, State::Running(_))
    }

    /// The next instant this driver needs the shard awake regardless of
    /// socket readiness.
    fn next_deadline(&self) -> Option<Instant> {
        match &self.state {
            State::Greeting { deadline } => Some(*deadline),
            State::Closing { deadline, .. } => Some(*deadline),
            State::Running(run) => run
                .sync
                .as_ref()
                .and_then(|s| s.outstanding.as_ref())
                .map(|o| o.deadline),
        }
    }

    /// Drain queued manager commands. Returns `false` when the
    /// connection is done.
    fn service_commands(&mut self) -> bool {
        loop {
            let cmd = match &mut self.state {
                State::Running(run) => run.cmd_rx.try_recv(),
                _ => return true,
            };
            match cmd {
                Ok(PumpCommand::SyncRound { round, samples }) => {
                    if let State::Running(run) = &mut self.state {
                        run.sync = Some(SyncState::new(round, samples));
                    }
                }
                Ok(PumpCommand::Adjust { round, advance_us }) => {
                    if self
                        .conn
                        .send(&Message::SyncAdjust { round, advance_us }.encode())
                        .is_err()
                    {
                        return false;
                    }
                }
                Ok(PumpCommand::Ack { seq, credit }) => {
                    if self
                        .conn
                        .send(&Message::BatchAck { seq, credit }.encode())
                        .is_err()
                    {
                        return false;
                    }
                }
                Ok(PumpCommand::Shutdown) => {
                    let _ = self.conn.send(&Message::Shutdown.encode());
                    // Keep draining the EXS's final flush for a bounded
                    // window, exactly like the threaded pump's teardown.
                    let placeholder = State::Greeting {
                        deadline: Instant::now(),
                    };
                    if let State::Running(mut run) = std::mem::replace(&mut self.state, placeholder)
                    {
                        // A sync round interrupted by shutdown reports
                        // what it collected — to the manager, samples
                        // lost to teardown look like samples lost to
                        // timeouts, and the round can still close.
                        if let Some(sync) = run.sync.take() {
                            run.io.send_event(PumpEvent::SyncSamples {
                                node: run.io.node,
                                round: sync.round,
                                samples: sync.collected,
                            });
                        }
                        self.state = State::Closing {
                            io: run.io,
                            deadline: Instant::now() + CLOSING_DRAIN,
                        };
                    }
                    return true;
                }
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// Advance the sync state machine: time out lost samples, send the
    /// next poll, emit `SyncSamples` when the round completes. Returns
    /// `false` when the connection is done.
    fn advance_sync(&mut self) -> bool {
        let run = match &mut self.state {
            State::Running(run) => run,
            _ => return true,
        };
        let Some(sync) = &mut run.sync else {
            return true;
        };
        let now = Instant::now();
        if let Some(out) = &sync.outstanding {
            if now >= out.deadline {
                sync.outstanding = None; // sample lost; move on
            }
        }
        if sync.outstanding.is_none() && sync.next_sample < sync.total {
            let sample = sync.next_sample;
            let t0 = run.io.clock.now();
            if self
                .conn
                .send(
                    &Message::SyncPoll {
                        round: sync.round,
                        sample,
                        master_send: t0,
                    }
                    .encode(),
                )
                .is_err()
            {
                return false;
            }
            sync.next_sample += 1;
            sync.outstanding = Some(Outstanding {
                sample,
                t0,
                deadline: now + SAMPLE_TIMEOUT,
            });
        }
        if sync.outstanding.is_none() && sync.next_sample >= sync.total {
            if let Some(done) = run.sync.take() {
                run.io.send_event(PumpEvent::SyncSamples {
                    node: run.io.node,
                    round: done.round,
                    samples: done.collected,
                });
            }
        }
        true
    }

    /// Handle one inbound frame. Returns `false` when the connection is
    /// done.
    fn on_frame(&mut self, frame: Vec<u8>, ctx: &ReactorConfig, waker: &Waker) -> bool {
        match &mut self.state {
            State::Greeting { .. } => self.greet(frame, ctx, waker),
            State::Running(run) => match run.io.on_frame(frame) {
                Ok(FrameOutcome::Consumed) => true,
                Ok(FrameOutcome::SyncReply {
                    round,
                    sample,
                    slave_time,
                }) => {
                    // A reply outside a round is stale; inside one, the
                    // state machine decides whether it matches.
                    if let Some(sync) = &mut run.sync {
                        sync.on_reply(round, sample, slave_time, &run.io);
                    }
                    true
                }
                Err(_) => false,
            },
            State::Closing { io, .. } => io.on_frame(frame).is_ok(),
        }
    }

    /// Server-side handshake, reactor style: the first frame must be a
    /// `Hello`. Anything else — or a decode failure — drops the
    /// connection silently; it never had an identity to report. A `Hello`
    /// claiming a node id another live connection already serves is a
    /// protocol error: it is quarantined and answered with `Shutdown`
    /// rather than allowed to clobber the first connection's session.
    fn greet(&mut self, frame: Vec<u8>, ctx: &ReactorConfig, waker: &Waker) -> bool {
        let (node, version) = match Message::decode(&frame) {
            Ok(Message::Hello { node, version }) => (node, brisk_proto::negotiate(version)),
            _ => return false,
        };
        let (mut handle, cmd_rx) = pump_channel(node, version);
        let id = handle.id();
        if !ctx.active.try_claim(node, id) {
            if let Some(log) = &ctx.quarantine {
                log.note_rejected_hello();
                log.record(node, &frame, "duplicate Hello: node already active");
            }
            brisk_telemetry::flight_log!(
                Warn,
                "ism.reactor",
                "duplicate_hello",
                "rejected Hello for node {node}: already served by a live connection"
            );
            let _ = self.conn.send(&Message::Shutdown.encode());
            return false;
        }
        if version >= 2 {
            let credit = if version >= 3 {
                ctx.flow.as_ref().and_then(|f| f.credit())
            } else {
                None
            };
            if self
                .conn
                .send(&Message::HelloAck { version, credit }.encode())
                .is_err()
            {
                ctx.active.release(node, id);
                return false;
            }
        }
        let wake = waker.clone();
        handle.attach_wake(Arc::new(move || wake.wake()));
        if ctx.pumps.send(handle).is_err() {
            ctx.active.release(node, id);
            return false; // server is shutting down
        }
        let io = PumpIo::new(
            node,
            id,
            Arc::clone(&ctx.clock),
            ctx.events.clone(),
            ctx.enqueued.clone(),
            ctx.flow.clone(),
            ProtocolGuard {
                budget: ctx.error_budget,
                log: ctx.quarantine.clone(),
            },
        );
        self.state = State::Running(Running {
            io,
            cmd_rx,
            sync: None,
        });
        true
    }

    /// Report the death of an identified connection and release its
    /// node-id claim; a connection still in its greeting never had an
    /// identity, so nothing is emitted.
    fn emit_disconnect(&self, ctx: &ReactorConfig) {
        let io = match &self.state {
            State::Running(run) => &run.io,
            State::Closing { io, .. } => io,
            State::Greeting { .. } => return,
        };
        ctx.active.release(io.node, io.id);
        io.send_event(PumpEvent::Disconnected {
            node: io.node,
            id: io.id,
        });
    }
}

/// One shard thread: adopt connections, service commands, poll sockets,
/// route frames, sweep the dead.
fn run_shard(
    ctx: ReactorConfig,
    conn_rx: Receiver<Box<dyn Connection>>,
    poller: Poller,
    stop: Arc<AtomicBool>,
) {
    let waker = poller.waker();
    let mut drivers: Vec<Driver> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut modes: Vec<ReadMode> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        // Adopt newly registered connections.
        while let Ok(conn) = conn_rx.try_recv() {
            drivers.push(Driver::new(conn));
        }
        // Commands and sync exchanges first: acks, credit grants and
        // sync traffic must not starve behind inbound batches.
        for d in drivers.iter_mut() {
            if !d.dead && (!d.service_commands() || !d.advance_sync()) {
                d.dead = true;
            }
        }
        // Deadlines: greetings that never said Hello, drains that ran out.
        let now = Instant::now();
        for d in drivers.iter_mut() {
            match &d.state {
                State::Greeting { deadline } if now >= *deadline => d.dead = true,
                State::Closing { deadline, .. } if now >= *deadline => d.dead = true,
                _ => {}
            }
        }
        // Backpressure: while the manager queue is over its bound,
        // running connections leave the poll set so their bytes pile up
        // in the transport. Greetings and closing drains still read, and
        // commands above still ran — sync and shutdown cannot deadlock.
        let over = ctx.flow.as_ref().is_some_and(|f| f.over_limit());
        fds.clear();
        modes.clear();
        let mut fdless_active = false;
        let mut buffered_ready = false;
        for d in drivers.iter() {
            if d.dead {
                modes.push(ReadMode::Skip);
                continue;
            }
            if over && d.is_running() {
                if let Some(flow) = &ctx.flow {
                    flow.note_deferral();
                }
                modes.push(ReadMode::Skip);
                continue;
            }
            // Framed transports drain the kernel socket eagerly, so a
            // frame-cap or backpressure break can leave whole frames in
            // the userspace buffer with POLLIN clear — such a connection
            // is readable now, whatever poll says.
            if d.conn.has_buffered() {
                buffered_ready = true;
                modes.push(ReadMode::Always);
                continue;
            }
            match d.conn.poll_fd() {
                Some(fd) => {
                    modes.push(ReadMode::Polled(fds.len()));
                    fds.push(poll_in(fd));
                }
                None => {
                    fdless_active = true;
                    modes.push(ReadMode::Always);
                }
            }
        }
        // Sleep until a socket is readable, a waker fires (new
        // connection, queued command, shutdown) or the nearest deadline.
        let mut timeout = if buffered_ready {
            // Complete frames are already in userspace; don't sleep at
            // all, just collect any concurrently-readable sockets.
            Duration::ZERO
        } else if fdless_active {
            FDLESS_TICK
        } else if over {
            DEFER_TICK
        } else {
            IDLE_TICK
        };
        let now = Instant::now();
        for d in drivers.iter() {
            if d.dead {
                continue;
            }
            if let Some(deadline) = d.next_deadline() {
                timeout = timeout.min(deadline.saturating_duration_since(now));
            }
        }
        if poller.wait(&mut fds, Some(timeout)).is_err() {
            // poll(2) failing is unrecoverable for this shard; dropping
            // the drivers closes every connection it owned.
            break;
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        // Read pass: drain readable connections, a bounded number of
        // frames each so one firehose cannot monopolize the shard.
        for (d, mode) in drivers.iter_mut().zip(modes.iter()) {
            let readable = match mode {
                ReadMode::Polled(slot) => fds[*slot].revents & (POLLIN | POLLERR | POLLHUP) != 0,
                ReadMode::Always => true,
                ReadMode::Skip => false,
            };
            if !readable || d.dead {
                continue;
            }
            for _ in 0..MAX_FRAMES_PER_PASS {
                // Re-check the queue bound between frames, not just when
                // the poll set was built: one drain of a deep socket
                // buffer could otherwise overshoot the bound by a whole
                // pass (the threaded pump checked before every read, and
                // the bound the tests pin is queue + one batch per pump).
                if matches!(d.state, State::Running(_))
                    && ctx.flow.as_ref().is_some_and(|f| f.over_limit())
                {
                    break;
                }
                match d.conn.recv(Some(Duration::ZERO)) {
                    Ok(Some(frame)) => {
                        if !d.on_frame(frame, &ctx, &waker) {
                            d.dead = true;
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        d.dead = true;
                        break;
                    }
                }
            }
        }
        // Sweep: report identified deaths, drop the rest silently.
        drivers.retain_mut(|d| {
            if !d.dead {
                return true;
            }
            d.emit_disconnect(&ctx);
            false
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::SystemClock;
    use brisk_core::{EventRecord, EventTypeId, NodeId, SensorId};
    use brisk_net::{MemTransport, Transport};

    fn test_pool() -> (
        ReactorPool,
        Receiver<PumpHandle>,
        Receiver<PumpEvent>,
        Arc<QuarantineLog>,
    ) {
        let (pump_tx, pump_rx) = unbounded();
        let (event_tx, event_rx) = unbounded();
        let quarantine = QuarantineLog::new();
        let pool = ReactorPool::spawn(
            2,
            ReactorConfig {
                clock: Arc::new(SystemClock),
                events: event_tx,
                pumps: pump_tx,
                enqueued: None,
                flow: Some(FlowState::new(brisk_core::FlowConfig {
                    credit_records: 64,
                    max_queued_records: 0,
                    shed_unmarked: false,
                })),
                error_budget: 2,
                quarantine: Some(Arc::clone(&quarantine)),
                active: Arc::new(ActiveNodes::default()),
            },
        )
        .unwrap();
        (pool, pump_rx, event_rx, quarantine)
    }

    fn mem_client(pool: &ReactorPool) -> Box<dyn Connection> {
        let t = MemTransport::new();
        let mut l = t.listen("r").unwrap();
        let c = t.connect("r").unwrap();
        let server = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        pool.register(server);
        c
    }

    #[test]
    fn greets_pumps_batches_and_reports_disconnect() {
        let (pool, pump_rx, event_rx, _q) = test_pool();
        let mut client = mem_client(&pool);
        client
            .send(
                &Message::Hello {
                    node: NodeId(7),
                    version: brisk_proto::VERSION,
                }
                .encode(),
            )
            .unwrap();
        // HelloAck carries the negotiated version and the credit grant.
        let frame = client.recv(Some(Duration::from_secs(2))).unwrap().unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap(),
            Message::HelloAck {
                version: brisk_proto::VERSION,
                credit: Some(64)
            }
        );
        let handle = pump_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(handle.node, NodeId(7));
        assert_eq!(handle.version(), brisk_proto::VERSION);
        // A batch arrives at the manager decoded.
        let rec = EventRecord::new(
            NodeId(7),
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
                    node: NodeId(7),
                    seq: Some(1),
                    records: vec![rec.clone()],
                }
                .encode(),
            )
            .unwrap();
        match event_rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            PumpEvent::Batch {
                node,
                id,
                seq,
                records,
                ..
            } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(id, handle.id());
                assert_eq!(seq, Some(1));
                assert_eq!(records, vec![rec]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Commands flow back out through the handle (waker-driven).
        assert!(handle.command(PumpCommand::Ack {
            seq: 1,
            credit: Some(64)
        }));
        let frame = client.recv(Some(Duration::from_secs(2))).unwrap().unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap(),
            Message::BatchAck {
                seq: 1,
                credit: Some(64)
            }
        );
        // Dropping the client surfaces as a Disconnected event.
        drop(client);
        match event_rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            PumpEvent::Disconnected { node, id } => {
                assert_eq!(node, NodeId(7));
                assert_eq!(id, handle.id());
            }
            other => panic!("unexpected {other:?}"),
        }
        pool.stop();
    }

    #[test]
    fn non_hello_greeting_is_dropped_without_a_pump() {
        let (pool, pump_rx, event_rx, _q) = test_pool();
        let mut client = mem_client(&pool);
        client.send(&Message::Heartbeat.encode()).unwrap();
        assert!(pump_rx.recv_timeout(Duration::from_millis(200)).is_err());
        assert!(event_rx.recv_timeout(Duration::from_millis(50)).is_err());
        pool.stop();
    }

    #[test]
    fn sync_round_runs_as_state_machine_while_batches_flow() {
        let (pool, pump_rx, event_rx, _q) = test_pool();
        let mut client = mem_client(&pool);
        client
            .send(
                &Message::Hello {
                    node: NodeId(2),
                    version: brisk_proto::VERSION,
                }
                .encode(),
            )
            .unwrap();
        let _ack = client.recv(Some(Duration::from_secs(2))).unwrap().unwrap();
        let handle = pump_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(handle.command(PumpCommand::SyncRound {
            round: 9,
            samples: 3
        }));
        // Slave side: answer 3 polls, interleaving a batch.
        let mut answered = 0;
        while answered < 3 {
            let frame = client.recv(Some(Duration::from_secs(2))).unwrap();
            let Some(frame) = frame else { continue };
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
        let mut batches = 0;
        let mut samples = None;
        for _ in 0..2 {
            match event_rx.recv_timeout(Duration::from_secs(2)).unwrap() {
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
        pool.stop();
    }

    #[test]
    fn spoofed_batch_ends_the_connection() {
        let (pool, pump_rx, event_rx, _q) = test_pool();
        let mut client = mem_client(&pool);
        client
            .send(
                &Message::Hello {
                    node: NodeId(5),
                    version: brisk_proto::VERSION,
                }
                .encode(),
            )
            .unwrap();
        let _ack = client.recv(Some(Duration::from_secs(2))).unwrap().unwrap();
        let handle = pump_rx.recv_timeout(Duration::from_secs(2)).unwrap();
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
        match event_rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            PumpEvent::Disconnected { node, id } => {
                assert_eq!(node, NodeId(5));
                assert_eq!(id, handle.id());
            }
            other => panic!("spoofed batch must not be forwarded, got {other:?}"),
        }
        pool.stop();
    }
}
