//! The threaded ISM server: accept loop + reactor pool + manager loop.
//!
//! Threads:
//!
//! * **accept** — accepts EXS connections and registers each with the
//!   reactor pool immediately; nothing on this thread can block on a
//!   client;
//! * **reactor shards** (bounded pool, see `crate::reactor`) — greet
//!   every connection (`Hello`, with its 5 s deadline) and then
//!   multiplex all of them over `poll(2)`: decode each batch frame once
//!   (validation and materialization in one pass, spoof check,
//!   `PumpRecv` stamp) and forward its records, send batch acks and
//!   credit grants, run poll exchanges with socket-accurate timestamps.
//!   Connection count is independent of thread count
//!   ([`brisk_core::IsmConfig::pump_threads`]);
//! * **manager** — owns the [`IsmCore`] and the [`SyncMaster`]; consumes
//!   pump events, pushes each batch's decoded records into the core,
//!   ticks the pipeline, schedules synchronization rounds every
//!   `poll_period`, plus the *extra* rounds requested by tachyon repairs
//!   (§3.6). Every record passes through this one thread, so it does no
//!   decoding: that work runs in parallel on the shards.

use crate::core::{IsmCore, IsmCoreStats};
use crate::cre::CreStats;
use crate::output::MemoryBuffer;
use crate::pump::{FlowState, PumpCommand, PumpEvent, PumpHandle, QuarantineLog};
use crate::reactor::{ActiveNodes, ReactorConfig, ReactorPool};
use crate::sorter::SorterStats;
use brisk_clock::{Clock, SyncMaster, SyncOutcome};
use brisk_core::{BriskError, IsmConfig, NodeId, Result, SyncConfig};
use brisk_net::{ConnMetrics, Listener};
use brisk_telemetry::{Counter, Histogram, Registry, StageLatencies};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Final report returned when the server stops.
#[derive(Clone, Debug, Default)]
pub struct IsmReport {
    /// Pipeline counters.
    pub core: IsmCoreStats,
    /// Sorter counters.
    pub sorter: SorterStats,
    /// CRE counters.
    pub cre: CreStats,
    /// Completed synchronization rounds.
    pub sync_rounds: u64,
    /// Outcome of the last round, if any.
    pub last_sync: Option<SyncOutcome>,
    /// Upstream-export counters, present when the server ran in relay
    /// mode (see [`IsmServer::set_upstream`]).
    pub relay: Option<crate::relay::RelayStats>,
}

/// The ISM server, pre-spawn. Attach sinks via [`IsmServer::core_mut`],
/// then call [`IsmServer::spawn`].
pub struct IsmServer {
    core: IsmCore,
    sync: SyncMaster,
    clock: Arc<dyn Clock>,
    flow: Arc<FlowState>,
    registry: Option<Arc<Registry>>,
    /// Liveness: evict a node whose connection has been silent this long.
    node_timeout: Option<Duration>,
    /// Undecodable frames tolerated per connection before disconnect.
    error_budget: u32,
    /// Reactor shard threads (0 = auto-size from the machine).
    pump_threads: usize,
    /// Shared malformed-frame quarantine across all pumps.
    quarantine: Arc<QuarantineLog>,
}

/// Manager tick granularity: how often the pipeline is polled when no
/// traffic arrives. This bounds added release latency on top of the
/// sorter's time frame.
const TICK: Duration = Duration::from_millis(1);
/// How long the manager waits for all slaves' samples before closing a
/// round with whatever arrived.
const ROUND_DEADLINE: Duration = Duration::from_secs(2);

impl IsmServer {
    /// New server.
    pub fn new(cfg: IsmConfig, sync_cfg: SyncConfig, clock: Arc<dyn Clock>) -> Result<Self> {
        let flow = FlowState::new(cfg.flow);
        let node_timeout = cfg.node_timeout;
        let error_budget = cfg.protocol_error_budget;
        let pump_threads = cfg.pump_threads;
        Ok(IsmServer {
            core: IsmCore::new(cfg)?,
            sync: SyncMaster::new(sync_cfg)?,
            clock,
            flow,
            registry: None,
            node_timeout,
            error_budget,
            pump_threads,
            quarantine: QuarantineLog::new(),
        })
    }

    /// Bind the whole server — core pipeline, sync master, connection
    /// metering, flow control and the manager queue — to `registry`. Call
    /// before [`IsmServer::spawn`].
    pub fn bind_telemetry(&mut self, registry: &Arc<Registry>) {
        self.core.bind_telemetry(registry);
        self.sync.bind_telemetry(registry);
        let f = Arc::clone(&self.flow);
        registry.gauge_fn(
            "brisk_ism_manager_queue_records",
            "Records resident in the ISM manager queue",
            &[],
            move || f.queued_records() as i64,
        );
        let f = Arc::clone(&self.flow);
        registry.gauge_fn(
            "brisk_ism_manager_queue_depth_high_water",
            "Highest record count ever resident in the ISM manager queue",
            &[],
            move || f.high_water() as i64,
        );
        let f = Arc::clone(&self.flow);
        registry.counter_fn(
            "brisk_ism_deferred_reads_total",
            "Socket reads pumps deferred because the manager queue was over its bound",
            &[],
            move || f.deferrals(),
        );
        self.quarantine.bind_telemetry(registry);
        self.registry = Some(Arc::clone(registry));
    }

    /// Access the core (e.g. to attach sinks) before spawning.
    pub fn core_mut(&mut self) -> &mut IsmCore {
        &mut self.core
    }

    /// Run this server as a *relay*: instead of delivering merged,
    /// repaired records to the local outputs, re-export them upstream as
    /// one namespaced EXS-like stream (§ relay topology in DESIGN.md).
    /// Call before [`IsmServer::spawn`].
    pub fn set_upstream(&mut self, exporter: crate::relay::UpstreamExporter) {
        self.core.set_upstream(exporter);
    }

    /// The output memory buffer (clone the `Arc` to create readers).
    pub fn memory(&self) -> Arc<MemoryBuffer> {
        Arc::clone(self.core.memory())
    }

    /// Start the accept and manager threads.
    pub fn spawn(self, mut listener: Box<dyn Listener>) -> Result<IsmHandle> {
        let addr = listener.local_addr();
        let memory = Arc::clone(self.core.memory());
        let stages = self.core.stage_latencies().cloned();
        let stop = Arc::new(AtomicBool::new(false));
        let (event_tx, event_rx) = unbounded::<PumpEvent>();
        let (pump_tx, pump_rx) = unbounded::<PumpHandle>();

        // Queue depth = events enqueued by pumps − events the manager
        // processed; both sides are cheap relaxed counters.
        let acks_sent = self.registry.as_ref().map(|r| {
            r.counter(
                "brisk_ism_acks_sent_total",
                "Batch acknowledgements sent to external sensors",
            )
        });
        let credit_grants = self.registry.as_ref().map(|r| {
            r.counter(
                "brisk_ism_credit_grants_total",
                "Credit replenishments piggybacked on batch acknowledgements",
            )
        });
        let grant_latency = self.registry.as_ref().map(|r| {
            r.histogram(
                "brisk_ism_grant_latency_us",
                "Microseconds from a batch entering the manager queue to its credit grant",
            )
        });
        let evicted = self.registry.as_ref().map(|r| {
            r.counter(
                "brisk_ism_evicted_nodes_total",
                "Nodes evicted after going silent past the liveness timeout",
            )
        });
        let (conn_metrics, enqueued, processed) = match &self.registry {
            Some(registry) => {
                let enqueued = Arc::new(Counter::new());
                let processed = Arc::new(Counter::new());
                let (e, p) = (Arc::clone(&enqueued), Arc::clone(&processed));
                registry.gauge_fn(
                    "brisk_ism_manager_queue_depth",
                    "Pump events waiting for the ISM manager",
                    &[],
                    move || e.get().saturating_sub(p.get()) as i64,
                );
                (
                    Some(ConnMetrics::register(registry, "ism")),
                    Some(enqueued),
                    Some(processed),
                )
            }
            None => (None, None, None),
        };

        // Reactor pool: a bounded set of shard threads drives every
        // connection, so accepting 1 000 sensors costs sockets, not
        // threads.
        let threads = if self.pump_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4)
        } else {
            self.pump_threads
        };
        let reactor = Arc::new(ReactorPool::spawn(
            threads,
            ReactorConfig {
                clock: Arc::clone(&self.clock),
                events: event_tx.clone(),
                pumps: pump_tx,
                enqueued,
                flow: Some(Arc::clone(&self.flow)),
                error_budget: self.error_budget,
                quarantine: Some(Arc::clone(&self.quarantine)),
                active: Arc::new(ActiveNodes::default()),
            },
        )?);

        // Accept thread.
        let accept_stop = Arc::clone(&stop);
        let accept_reactor = Arc::clone(&reactor);
        let accept_join = std::thread::Builder::new()
            .name("brisk-ism-accept".into())
            .spawn(move || accept_loop(&mut listener, accept_stop, conn_metrics, accept_reactor))
            .map_err(BriskError::Io)?;

        // Manager thread.
        let mgr_stop = Arc::clone(&stop);
        let manager = Manager {
            core: self.core,
            sync: self.sync,
            clock: self.clock,
            flow: self.flow,
            events: event_rx,
            new_pumps: pump_rx,
            pumps: HashMap::new(),
            retiring: Vec::new(),
            round: None,
            last_round_finished: Instant::now(),
            node_timeout: self.node_timeout,
            last_seen: HashMap::new(),
            processed,
            acks_sent,
            credit_grants,
            grant_latency,
            evicted,
        };
        let manager_join = std::thread::Builder::new()
            .name("brisk-ism-manager".into())
            .spawn(move || manager.run(mgr_stop))
            .map_err(BriskError::Io)?;

        Ok(IsmHandle {
            addr,
            memory,
            quarantine: self.quarantine,
            stages,
            stop,
            reactor,
            accept_join,
            manager_join,
        })
    }
}

fn accept_loop(
    listener: &mut Box<dyn Listener>,
    stop: Arc<AtomicBool>,
    conn_metrics: Option<ConnMetrics>,
    reactor: Arc<ReactorPool>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept(Some(Duration::from_millis(50))) {
            Ok(Some(conn)) => {
                // Meter before the handshake so Hello frames count too.
                let conn = match &conn_metrics {
                    Some(m) => m.wrap(conn),
                    None => conn,
                };
                // Hand the raw connection straight to the reactor: the
                // greeting (with its 5 s deadline) runs poll-driven on a
                // shard, so a slow or hung client costs a poll slot, not
                // a thread, and can never head-of-line-block other
                // connects.
                reactor.register(conn);
            }
            Ok(None) => continue,
            Err(_) => return,
        }
    }
}

struct RoundInFlight {
    round: u64,
    expected: HashSet<NodeId>,
    started: Instant,
}

struct Manager {
    core: IsmCore,
    sync: SyncMaster,
    clock: Arc<dyn Clock>,
    flow: Arc<FlowState>,
    events: Receiver<PumpEvent>,
    new_pumps: Receiver<PumpHandle>,
    pumps: HashMap<NodeId, PumpHandle>,
    /// Stale pumps (displaced by a reconnect) that have been told to shut
    /// down but whose `Disconnected` has not been seen yet.
    retiring: Vec<PumpHandle>,
    round: Option<RoundInFlight>,
    last_round_finished: Instant,
    /// Evict a node whose connection shows no life signs for this long
    /// (`None` disables the sweep). "Life" is peer traffic: a batch, a
    /// heartbeat, or delivered sync samples — not mere pump-thread
    /// activity, which keeps running even against a dead socket.
    node_timeout: Option<Duration>,
    /// Last observed life sign per registered node.
    last_seen: HashMap<NodeId, Instant>,
    processed: Option<Arc<Counter>>,
    acks_sent: Option<Arc<Counter>>,
    credit_grants: Option<Arc<Counter>>,
    grant_latency: Option<Arc<Histogram>>,
    evicted: Option<Arc<Counter>>,
}

impl Manager {
    fn run(mut self, stop: Arc<AtomicBool>) -> Result<IsmReport> {
        while !stop.load(Ordering::Relaxed) {
            // Register newly-accepted connections.
            self.register_new_pumps();
            // Consume pump events for up to one tick.
            match self.events.recv_timeout(TICK) {
                Ok(ev) => {
                    self.handle_event(ev)?;
                    // Opportunistically drain whatever else queued up.
                    while let Ok(ev) = self.events.try_recv() {
                        self.handle_event(ev)?;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            // Advance the pipeline.
            self.core.tick(self.clock.now())?;
            // Round scheduling: periodic, plus tachyon-triggered extras.
            let extra = self.core.take_extra_sync_request();
            let due = self.last_round_finished.elapsed() >= self.sync.config().poll_period;
            if self.round.is_none() && !self.pumps.is_empty() && (due || extra) {
                self.begin_round();
            }
            self.maybe_close_round(false)?;
            self.evict_stale();
        }
        // Shutdown: stop pumps (retiring ones already got Shutdown, but a
        // repeat is harmless), drain stragglers, flush pipeline.
        for handle in self.pumps.values().chain(self.retiring.iter()) {
            handle.command(PumpCommand::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut live = self.pumps.len() + self.retiring.len();
        while live > 0 && Instant::now() < deadline {
            match self.events.recv_timeout(Duration::from_millis(20)) {
                Ok(ev @ PumpEvent::Disconnected { .. }) => {
                    live -= 1;
                    // Still routed through handle_event: the processed
                    // counter must balance the pump's enqueued counter or
                    // the queue-depth gauge reads a phantom backlog after
                    // shutdown.
                    self.handle_event(ev)?;
                }
                Ok(ev) => self.handle_event(ev)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for (_, handle) in self.pumps.drain() {
            handle.join();
        }
        for handle in self.retiring.drain(..) {
            handle.join();
        }
        self.core.drain_all()?;
        Ok(IsmReport {
            core: self.core.stats(),
            sorter: self.core.sorter_stats(),
            cre: self.core.cre_stats(),
            sync_rounds: self.sync.rounds_completed(),
            last_sync: self.sync.last_outcome().cloned(),
            relay: self.core.upstream().map(|u| u.stats()),
        })
    }

    /// Drain the registration channel. A node that reconnects before its
    /// dead pump was reaped displaces the old handle: retire it (send
    /// Shutdown, park until its `Disconnected` arrives) so sync rounds
    /// never target a dead socket.
    fn register_new_pumps(&mut self) {
        while let Ok(handle) = self.new_pumps.try_recv() {
            self.last_seen.insert(handle.node, Instant::now());
            if let Some(old) = self.pumps.insert(handle.node, handle) {
                old.command(PumpCommand::Shutdown);
                self.retiring.push(old);
            }
        }
    }

    /// Evict nodes with no life signs past the liveness timeout. TCP can
    /// sit on a silently dead peer for minutes; the heartbeat/eviction
    /// pair bounds how long a dead node occupies a pump slot and sync
    /// rounds. The evicted pump is retired exactly like one displaced by
    /// a reconnect, so a node that comes back simply re-registers.
    fn evict_stale(&mut self) {
        let Some(timeout) = self.node_timeout else {
            return;
        };
        let stale: Vec<NodeId> = self
            .last_seen
            .iter()
            .filter(|(_, seen)| seen.elapsed() > timeout)
            .map(|(node, _)| *node)
            .collect();
        for node in stale {
            self.last_seen.remove(&node);
            if let Some(handle) = self.pumps.remove(&node) {
                brisk_telemetry::flight_log!(
                    Warn,
                    "ism.manager",
                    "node_evicted",
                    "node {node} evicted: no life signs for over {timeout:?}"
                );
                handle.command(PumpCommand::Shutdown);
                self.retiring.push(handle);
                if let Some(c) = &self.evicted {
                    c.inc();
                }
                if let Some(r) = &mut self.round {
                    r.expected.remove(&node);
                }
            }
        }
    }

    fn handle_event(&mut self, ev: PumpEvent) -> Result<()> {
        if let Some(c) = &self.processed {
            c.inc();
        }
        match ev {
            PumpEvent::Batch {
                node,
                id,
                seq,
                records,
                enqueued_at,
            } => {
                self.last_seen.insert(node, Instant::now());
                let n = records.len() as u64;
                // The pump decoded and PumpRecv-stamped the records at
                // the socket; the manager only merges them.
                //
                // Dedup happens in the core; accepted or not, a sequenced
                // batch is acked — a replayed duplicate means our earlier
                // ack died with the old connection, so re-acking is
                // exactly what unblocks the sender's retransmit window.
                let pushed = self
                    .core
                    .push_batch_seq(node, seq, records, self.clock.now());
                // The records left the manager queue whether the core
                // accepted them or not; free the pumps before erroring.
                self.flow.sub(n);
                pushed?;
                if let Some(seq) = seq {
                    // The batch may outrun its pump's registration (the
                    // channels are separate): catch up, then ack through
                    // the exact pump instance the batch arrived on.
                    self.register_new_pumps();
                    let handle = self
                        .pumps
                        .get(&node)
                        .filter(|h| h.id() == id)
                        .or_else(|| self.retiring.iter().find(|h| h.id() == id));
                    if let Some(handle) = handle {
                        // v3 peers get their credit budget re-advertised
                        // on every ack: acked records no longer count
                        // against the in-flight budget, so the constant
                        // re-grant is exactly the replenishment.
                        let credit = if handle.version() >= 3 {
                            self.flow.credit()
                        } else {
                            None
                        };
                        if handle.command(PumpCommand::Ack { seq, credit }) {
                            if let Some(c) = &self.acks_sent {
                                c.inc();
                            }
                            if credit.is_some() {
                                if let Some(c) = &self.credit_grants {
                                    c.inc();
                                }
                                if let Some(h) = &self.grant_latency {
                                    h.record(enqueued_at.elapsed().as_micros() as u64);
                                }
                            }
                        }
                    }
                }
            }
            PumpEvent::SyncSamples {
                node,
                round,
                samples,
            } => {
                // Only delivered samples prove the *peer* is alive; an
                // empty set just means the pump's polls timed out.
                if !samples.is_empty() {
                    self.last_seen.insert(node, Instant::now());
                }
                if let Some(r) = &mut self.round {
                    if r.round == round {
                        for s in samples {
                            self.sync.add_sample(node, s);
                        }
                        r.expected.remove(&node);
                        self.maybe_close_round(true)?;
                    }
                }
            }
            PumpEvent::Heartbeat { node, id } => {
                // A stale pump's late heartbeat must not keep an
                // otherwise-dead node alive.
                if self.pumps.get(&node).is_some_and(|h| h.id() == id) {
                    self.last_seen.insert(node, Instant::now());
                }
            }
            PumpEvent::Disconnected { node, id } => {
                // Only the *current* pump's death removes the node: a
                // stale pump (displaced by a reconnect) reporting in late
                // must not tear down its successor.
                if self.pumps.get(&node).is_some_and(|h| h.id() == id) {
                    if let Some(handle) = self.pumps.remove(&node) {
                        handle.join();
                    }
                    self.last_seen.remove(&node);
                    if let Some(r) = &mut self.round {
                        r.expected.remove(&node);
                    }
                } else if let Some(pos) = self.retiring.iter().position(|h| h.id() == id) {
                    self.retiring.swap_remove(pos).join();
                }
            }
        }
        Ok(())
    }

    fn begin_round(&mut self) {
        let round = self.sync.begin_round();
        let samples = self.sync.samples_per_slave() as u32;
        let mut expected = HashSet::new();
        for (node, handle) in &self.pumps {
            if handle.command(PumpCommand::SyncRound { round, samples }) {
                expected.insert(*node);
            }
        }
        if expected.is_empty() {
            self.last_round_finished = Instant::now();
            return;
        }
        self.round = Some(RoundInFlight {
            round,
            expected,
            started: Instant::now(),
        });
    }

    fn maybe_close_round(&mut self, complete_check_only: bool) -> Result<()> {
        let close = match &self.round {
            Some(r) => {
                r.expected.is_empty()
                    || (!complete_check_only && r.started.elapsed() > ROUND_DEADLINE)
            }
            None => false,
        };
        if !close {
            return Ok(());
        }
        self.round = None;
        let outcome = self.sync.finish_round()?;
        for c in &outcome.corrections {
            if let Some(handle) = self.pumps.get(&c.node) {
                handle.command(PumpCommand::Adjust {
                    round: self.sync.rounds_completed(),
                    advance_us: c.advance_us,
                });
            }
        }
        self.last_round_finished = Instant::now();
        Ok(())
    }
}

/// Handle to a running ISM server.
pub struct IsmHandle {
    addr: String,
    memory: Arc<MemoryBuffer>,
    quarantine: Arc<QuarantineLog>,
    stages: Option<Arc<StageLatencies>>,
    stop: Arc<AtomicBool>,
    reactor: Arc<ReactorPool>,
    accept_join: std::thread::JoinHandle<()>,
    manager_join: std::thread::JoinHandle<Result<IsmReport>>,
}

impl IsmHandle {
    /// Address external sensors should connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The output memory buffer.
    pub fn memory(&self) -> &Arc<MemoryBuffer> {
        &self.memory
    }

    /// The malformed-frame quarantine log (counters + retained samples).
    pub fn quarantine(&self) -> &Arc<QuarantineLog> {
        &self.quarantine
    }

    /// Per-stage trace latency histograms with exemplar trace ids
    /// (present when telemetry was bound before spawning).
    pub fn stage_latencies(&self) -> Option<&Arc<StageLatencies>> {
        self.stages.as_ref()
    }

    /// Stop the server and collect the final report.
    pub fn stop(self) -> Result<IsmReport> {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.accept_join.join();
        // The manager's shutdown drain needs the reactor alive (pumps
        // forward the EXSs' final flushes and report Disconnected), so
        // the pool stops only after the manager has joined.
        let report = self
            .manager_join
            .join()
            .map_err(|_| BriskError::Sync("ISM manager thread panicked".into()))?;
        self.reactor.stop();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_clock::SystemClock;
    use brisk_core::{EventTypeId, UtcMicros, Value};
    use brisk_lis_like::*;

    /// Minimal in-test EXS substitute: we drive the protocol by hand so the
    /// server tests do not depend on brisk-lis (which depends on this
    /// crate's siblings only, but keeping the dependency graph acyclic for
    /// tests is simpler).
    mod brisk_lis_like {
        pub use brisk_net::{Connection, MemTransport, TcpTransport, Transport};
        pub use brisk_proto::Message;
    }

    fn start_server() -> (IsmHandle, Arc<MemTransport>) {
        let t = MemTransport::new();
        let listener = t.listen("ism").unwrap();
        let server = IsmServer::new(
            IsmConfig::default(),
            SyncConfig {
                poll_period: Duration::from_millis(50),
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        (server.spawn(listener).unwrap(), t)
    }

    fn hello(conn: &mut Box<dyn Connection>, node: u32) {
        conn.send(
            &Message::Hello {
                node: NodeId(node),
                version: brisk_proto::VERSION,
            }
            .encode(),
        )
        .unwrap();
    }

    fn batch_seq(node: u32, seq: Option<u64>, seqs: std::ops::Range<u64>) -> Message {
        Message::EventBatch {
            node: NodeId(node),
            seq,
            records: seqs
                .map(|i| {
                    brisk_core::EventRecord::new(
                        NodeId(node),
                        brisk_core::SensorId(0),
                        EventTypeId(1),
                        i,
                        UtcMicros::now(),
                        vec![Value::U64(i)],
                    )
                    .unwrap()
                })
                .collect(),
        }
    }

    /// An unsequenced (v1-style) batch.
    fn batch(node: u32, seqs: std::ops::Range<u64>) -> Message {
        batch_seq(node, None, seqs)
    }

    /// Receive decoded messages until `pred` returns `Some`, answering
    /// nothing; returns `None` on timeout.
    fn recv_until<T>(
        conn: &mut Box<dyn Connection>,
        budget: Duration,
        mut pred: impl FnMut(Message) -> Option<T>,
    ) -> Option<T> {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(20))) {
                if let Some(t) = pred(Message::decode(&frame).unwrap()) {
                    return Some(t);
                }
            }
        }
        None
    }

    #[test]
    fn records_reach_memory_buffer() {
        let (handle, t) = start_server();
        let mut reader = handle.memory().reader();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        conn.send(&batch(1, 0..10).encode()).unwrap();

        let deadline = Instant::now() + Duration::from_secs(5);
        let mut total = 0;
        while total < 10 && Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            total += recs.len();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(total, 10);
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 10);
        assert_eq!(report.core.records_out, 10);
    }

    #[test]
    fn multiple_nodes_merge() {
        let (handle, t) = start_server();
        let mut reader = handle.memory().reader();
        let mut conns: Vec<Box<dyn Connection>> = (1..=3)
            .map(|n| {
                let mut c = t.connect("ism").unwrap();
                hello(&mut c, n);
                c
            })
            .collect();
        for (i, c) in conns.iter_mut().enumerate() {
            c.send(&batch(i as u32 + 1, 0..5).encode()).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 15 && Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            got.extend(recs);
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(got.len(), 15);
        // Output must be timestamp-sorted.
        assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
        handle.stop().unwrap();
    }

    #[test]
    fn server_answers_nothing_until_clients_connect_then_syncs() {
        let (handle, t) = start_server();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        // Expect a SyncPoll within a few poll periods; answer a few.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut polls_answered = 0;
        while polls_answered < 4 && Instant::now() < deadline {
            if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(100))) {
                if let Message::SyncPoll {
                    round,
                    sample,
                    master_send,
                } = Message::decode(&frame).unwrap()
                {
                    conn.send(
                        &Message::SyncReply {
                            round,
                            sample,
                            master_send,
                            slave_time: UtcMicros::now(),
                        }
                        .encode(),
                    )
                    .unwrap();
                    polls_answered += 1;
                }
            }
        }
        assert!(polls_answered >= 4, "master must poll its slave");
        let report = handle.stop().unwrap();
        assert!(report.sync_rounds >= 1);
    }

    #[test]
    fn v2_client_gets_hello_ack_and_batch_acks() {
        let (handle, t) = start_server();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        let acked = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::HelloAck { version, credit } => Some((version, credit)),
            _ => None,
        });
        // Credit flow control is off by default: the ack carries no grant.
        assert_eq!(acked, Some((brisk_proto::VERSION, None)));
        conn.send(&batch_seq(1, Some(1), 0..3).encode()).unwrap();
        let acked = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, credit } => Some((seq, credit)),
            _ => None,
        });
        assert_eq!(acked, Some((1, None)));
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 3);
    }

    #[test]
    fn credit_enabled_server_grants_on_hello_and_acks() {
        let t = MemTransport::new();
        let listener = t.listen("ism-credit").unwrap();
        let mut server = IsmServer::new(
            IsmConfig {
                flow: brisk_core::FlowConfig {
                    credit_records: 64,
                    max_queued_records: 0,
                    shed_unmarked: false,
                },
                ..IsmConfig::default()
            },
            SyncConfig {
                poll_period: Duration::from_secs(60),
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let registry = Registry::new();
        server.bind_telemetry(&registry);
        let handle = server.spawn(listener).unwrap();
        let mut conn = t.connect("ism-credit").unwrap();
        hello(&mut conn, 1);
        let granted = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::HelloAck { credit, .. } => Some(credit),
            _ => None,
        });
        assert_eq!(granted, Some(Some(64)), "v3 Hello must carry the budget");
        conn.send(&batch_seq(1, Some(1), 0..3).encode()).unwrap();
        let acked = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, credit } => Some((seq, credit)),
            _ => None,
        });
        assert_eq!(acked, Some((1, Some(64))), "acks must replenish credit");
        handle.stop().unwrap();
        let snap = registry.snapshot();
        assert!(snap.counter_total("brisk_ism_credit_grants_total") >= 1);
        let lat = snap
            .histogram("brisk_ism_grant_latency_us")
            .expect("grant latency histogram");
        assert!(lat.count() >= 1);
    }

    #[test]
    fn v1_client_interoperates_without_acks() {
        let (handle, t) = start_server();
        let mut reader = handle.memory().reader();
        let mut conn = t.connect("ism").unwrap();
        conn.send(
            &Message::Hello {
                node: NodeId(1),
                version: 1,
            }
            .encode(),
        )
        .unwrap();
        conn.send(&batch(1, 0..5).encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut total = 0;
        while total < 5 && Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            total += recs.len();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(total, 5, "v1 batches must still flow");
        // A v1 peer must never see v2 control messages.
        let v2_msg = recv_until(&mut conn, Duration::from_millis(300), |m| match m {
            Message::HelloAck { .. } | Message::BatchAck { .. } => Some(m),
            _ => None,
        });
        assert!(v2_msg.is_none(), "v1 peer got v2 message {v2_msg:?}");
        handle.stop().unwrap();
    }

    #[test]
    fn replayed_batch_is_dropped_and_reacked() {
        let t = MemTransport::new();
        let listener = t.listen("ism").unwrap();
        let mut server = IsmServer::new(
            IsmConfig::default(),
            SyncConfig {
                poll_period: Duration::from_secs(60), // keep sync out of the way
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let registry = Registry::new();
        server.bind_telemetry(&registry);
        let handle = server.spawn(listener).unwrap();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        conn.send(&batch_seq(1, Some(1), 0..4).encode()).unwrap();
        let first_ack = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, .. } => Some(seq),
            _ => None,
        });
        assert_eq!(first_ack, Some(1));
        // Replay the same batch (as after a reconnect whose ack was lost):
        // it must be dropped by dedup yet acked again.
        conn.send(&batch_seq(1, Some(1), 0..4).encode()).unwrap();
        let second_ack = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, .. } => Some(seq),
            _ => None,
        });
        assert_eq!(second_ack, Some(1), "replays must be re-acked");
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 4, "replay must not double-count");
        assert_eq!(report.core.duplicate_batches, 1);
        assert_eq!(report.core.duplicate_records, 4);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_duplicate_batches_total"), 1);
        assert!(snap.counter_total("brisk_ism_acks_sent_total") >= 2);
    }

    #[test]
    fn spoofed_batch_node_ends_connection() {
        let (handle, t) = start_server();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        // Spoof: the connection authenticated as node 1 but the batch
        // claims node 2. The server must kill the connection.
        conn.send(&batch_seq(2, Some(1), 0..3).encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut killed = false;
        while Instant::now() < deadline {
            if conn.recv(Some(Duration::from_millis(20))).is_err() {
                killed = true;
                break;
            }
        }
        assert!(killed, "spoofed connection must be dropped");
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 0, "spoofed records must not land");
    }

    #[test]
    fn duplicate_hello_is_rejected_and_node_frees_on_disconnect() {
        let (handle, t) = start_server();
        // First connection for node 1, held open (its pump stays alive).
        let mut conn1 = t.connect("ism").unwrap();
        hello(&mut conn1, 1);
        conn1.send(&batch_seq(1, Some(1), 0..2).encode()).unwrap();
        assert!(
            recv_until(&mut conn1, Duration::from_secs(2), |m| match m {
                Message::BatchAck { seq, .. } => Some(seq),
                _ => None,
            })
            .is_some(),
            "first connection must be live"
        );
        // A second Hello claiming node 1 while conn1 is still live is a
        // protocol error: the impostor is answered with Shutdown and
        // quarantined, and conn1's session is untouched.
        let mut conn2 = t.connect("ism").unwrap();
        hello(&mut conn2, 1);
        let rejected = recv_until(&mut conn2, Duration::from_secs(2), |m| match m {
            Message::Shutdown => Some(()),
            Message::HelloAck { .. } => None,
            other => panic!("unexpected reply to duplicate Hello: {other:?}"),
        });
        assert!(rejected.is_some(), "duplicate Hello must be rejected");
        assert_eq!(handle.quarantine().rejected_hellos(), 1);
        // The original connection keeps working...
        conn1.send(&batch_seq(1, Some(2), 0..2).encode()).unwrap();
        let ack2 = recv_until(&mut conn1, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, .. } if seq >= 2 => Some(seq),
            _ => None,
        });
        assert_eq!(ack2, Some(2), "original connection must keep its acks");
        // ...and once it closes, the node id is free for a reconnect.
        conn1.send(&Message::Shutdown.encode()).unwrap();
        drop(conn1);
        let mut conn3 = None;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let mut c = t.connect("ism").unwrap();
            hello(&mut c, 1);
            let greeted = recv_until(&mut c, Duration::from_secs(2), |m| match m {
                Message::HelloAck { .. } => Some(true),
                Message::Shutdown => Some(false),
                _ => None,
            });
            if greeted == Some(true) {
                conn3 = Some(c);
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut conn3 = conn3.expect("node id must be reclaimable after disconnect");
        conn3.send(&batch_seq(1, Some(3), 0..2).encode()).unwrap();
        let ack3 = recv_until(&mut conn3, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, .. } if seq >= 3 => Some(seq),
            _ => None,
        });
        assert_eq!(ack3, Some(3), "reconnect after disconnect must be accepted");
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 6);
    }

    fn start_server_with_timeout(
        node_timeout: Duration,
    ) -> (IsmHandle, Arc<MemTransport>, Arc<Registry>) {
        let t = MemTransport::new();
        let listener = t.listen("ism").unwrap();
        let mut server = IsmServer::new(
            IsmConfig {
                node_timeout: Some(node_timeout),
                ..IsmConfig::default()
            },
            SyncConfig {
                poll_period: Duration::from_secs(60), // keep sync out of the way
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let registry = Registry::new();
        server.bind_telemetry(&registry);
        (server.spawn(listener).unwrap(), t, registry)
    }

    #[test]
    fn silent_node_is_evicted_after_timeout() {
        let (handle, t, registry) = start_server_with_timeout(Duration::from_millis(150));
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        conn.send(&batch_seq(1, Some(1), 0..2).encode()).unwrap();
        // Then go silent: the manager must evict the node — the pump
        // sends Shutdown and retires, exactly like a displaced pump.
        let shut = recv_until(&mut conn, Duration::from_secs(5), |m| match m {
            Message::Shutdown => Some(()),
            _ => None,
        });
        assert!(shut.is_some(), "silent node must be told to shut down");
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_evicted_nodes_total"), 1);
    }

    #[test]
    fn heartbeats_keep_a_quiet_node_alive() {
        let (handle, t, registry) = start_server_with_timeout(Duration::from_millis(250));
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        // Send no batches at all — only heartbeats — for several times
        // the timeout. The node must never be evicted.
        let deadline = Instant::now() + Duration::from_millis(1200);
        while Instant::now() < deadline {
            conn.send(&Message::Heartbeat.encode()).unwrap();
            if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(50))) {
                if let Ok(Message::Shutdown) = Message::decode(&frame) {
                    panic!("heartbeating node must not be evicted");
                }
            }
        }
        handle.stop().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_evicted_nodes_total"), 0);
    }

    #[test]
    fn garbage_frames_are_quarantined_then_budget_disconnects() {
        let t = MemTransport::new();
        let listener = t.listen("ism").unwrap();
        let mut server = IsmServer::new(
            IsmConfig {
                protocol_error_budget: 2,
                ..IsmConfig::default()
            },
            SyncConfig {
                poll_period: Duration::from_secs(60),
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let registry = Registry::new();
        server.bind_telemetry(&registry);
        let handle = server.spawn(listener).unwrap();
        let mut conn = t.connect("ism").unwrap();
        hello(&mut conn, 1);
        // Two garbage frames are quarantined; a batch still lands.
        conn.send(&[0xde, 0xad]).unwrap();
        conn.send(&[0xbe, 0xef]).unwrap();
        conn.send(&batch_seq(1, Some(1), 0..3).encode()).unwrap();
        let acked = recv_until(&mut conn, Duration::from_secs(2), |m| match m {
            Message::BatchAck { seq, .. } => Some(seq),
            _ => None,
        });
        assert_eq!(acked, Some(1), "batches must survive quarantined frames");
        // The third garbage frame exhausts the budget: disconnect.
        conn.send(&[0x00]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut killed = false;
        while Instant::now() < deadline {
            if conn.recv(Some(Duration::from_millis(20))).is_err() {
                killed = true;
                break;
            }
        }
        assert!(killed, "offender must be disconnected after the budget");
        assert_eq!(handle.quarantine().frames(), 3);
        assert_eq!(handle.quarantine().disconnects(), 1);
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_quarantined_frames_total"), 3);
        assert_eq!(
            snap.counter_total("brisk_ism_quarantine_disconnects_total"),
            1
        );
    }

    #[test]
    fn stop_with_no_clients_is_clean() {
        let (handle, _t) = start_server();
        std::thread::sleep(Duration::from_millis(50));
        let report = handle.stop().unwrap();
        assert_eq!(report.core.records_in, 0);
    }

    #[test]
    fn bound_server_exports_pipeline_and_net_series() {
        let t = MemTransport::new();
        let listener = t.listen("ism-telemetry").unwrap();
        let mut server = IsmServer::new(
            IsmConfig::default(),
            SyncConfig {
                poll_period: Duration::from_millis(50),
                ..SyncConfig::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let registry = Registry::new();
        server.bind_telemetry(&registry);
        let handle = server.spawn(listener).unwrap();
        let mut reader = handle.memory().reader();
        let mut conn = t.connect("ism-telemetry").unwrap();
        hello(&mut conn, 3);
        conn.send(&batch(3, 0..12).encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut total = 0;
        while total < 12 && Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            total += recs.len();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(total, 12);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("brisk_ism_records_in_total"), 12);
        assert_eq!(snap.counter_total("brisk_ism_records_out_total"), 12);
        assert!(
            snap.counter_labeled("brisk_net_frames_total", &[("role", "ism"), ("dir", "in")])
                .unwrap()
                >= 2,
            "Hello + EventBatch frames metered"
        );
        assert!(
            snap.counter_labeled("brisk_net_bytes_total", &[("role", "ism"), ("dir", "in")])
                .unwrap()
                > 0
        );
        assert_eq!(snap.gauge("brisk_ism_manager_queue_depth"), Some(0));
        drop(conn);
        handle.stop().unwrap();
    }

    #[test]
    fn works_over_real_tcp() {
        let t = TcpTransport;
        let listener = t.listen("127.0.0.1:0").unwrap();
        let server = IsmServer::new(
            IsmConfig::default(),
            SyncConfig::default(),
            Arc::new(SystemClock),
        )
        .unwrap();
        let handle = server.spawn(listener).unwrap();
        let mut reader = handle.memory().reader();
        let mut conn = t.connect(handle.addr()).unwrap();
        hello(&mut conn, 7);
        conn.send(&batch(7, 0..20).encode()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut total = 0;
        while total < 20 && Instant::now() < deadline {
            let (recs, _) = reader.poll().unwrap();
            total += recs.len();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(total, 20);
        handle.stop().unwrap();
    }
}
