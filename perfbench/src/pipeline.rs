//! The live pipeline: instrumented nodes (`brisk-lis` sensors + EXS)
//! talking over TCP loopback to in-process `IsmServer` tiers, with
//! protocol-v3 acks and credit on, plus the benchmark-owned pieces that
//! observe it from outside: the root sink, the connection timing
//! wrapper and the generator threads.

use crate::query::{self, QueryStats, Span};
use crate::util::{self, Blocks, CpuClock, Hist, Rng, BLOCK_NS};
use crate::verify::{Checker, Payload, Verdict, KIND_CONSEQ, KIND_PLAIN, KIND_REASON};
use brisk::core::{
    EventRecord, EventSink, EventTypeId, ExsConfig, FlowConfig, IsmConfig, NodeId, OrderMode,
    Result, StoreConfig, SyncConfig, TraceConfig, TraceStage,
};
use brisk::ism::{IsmHandle, IsmReport, IsmServer, RelayConfig, UpstreamExporter};
use brisk::lis::{spawn_exs, ExsHandle, ExsStats, Lis};
use brisk::net::{Connection, Listener, TcpTransport, Transport};
use brisk::prelude::{Clock, CorrectedClock, FaultClock, SystemClock};
use brisk::proto::NodePrefix;
use brisk::ringbuf::SensorPort;
use brisk::telemetry::Registry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The three workloads (see `BENCHMARK.json` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SaturateStore,
    RelayCausal,
    QueryLive,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "saturate_store" => Some(Workload::SaturateStore),
            "relay_causal" => Some(Workload::RelayCausal),
            "query_live" => Some(Workload::QueryLive),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SaturateStore => "saturate_store",
            Workload::RelayCausal => "relay_causal",
            Workload::QueryLive => "query_live",
        }
    }

    /// Generator nodes (each its own LIS and EXS connection).
    pub fn nodes(self) -> usize {
        match self {
            Workload::QueryLive => 1,
            _ => 2,
        }
    }

    /// Offered rate of the paced (open-loop) workloads, records/s.
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::SaturateStore => None,
            Workload::RelayCausal => Some(30_000.0),
            Workload::QueryLive => Some(20_000.0),
        }
    }
}

/// Credit budget granted to every connection (protocol v3).
const CREDIT_RECORDS: u64 = 4_096;
/// Closed-loop window: records the generator may have offered but the
/// root not yet delivered. Credit bounds only what is in flight to the
/// ISM; behind it the adaptive sorter frame would let a saturated root
/// buffer up to its 2 s maximum frame. The window keeps the pipeline
/// busy while bounding every queue, so latency is the window over the
/// throughput (Little's law).
const WINDOW_RECORDS: u64 = 16_384;
/// Closed-loop back-off while the window is full or a ring refused.
const RETRY_BACKOFF: Duration = Duration::from_micros(20);
/// Generator warm-up before the measured window opens.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Share of `relay_causal` slots that start a cross-node reason→conseq
/// pair (the pair takes two consecutive slots).
const PAIR_SHARE: f64 = 0.1;
/// Drift of the faulted `relay_causal` leaf clock. Sync rounds every
/// `RELAY_SYNC_PERIOD` pull it back, so its error saw-tooths up to
/// ~250 µs, several inter-record gaps at 30 k records/s: tachyons arise
/// between rounds.
const DRIFT_PPM: f64 = -500.0;
const RELAY_SYNC_PERIOD: Duration = Duration::from_millis(500);
/// 1-in-N records carry an `X_TRACE` context in traced runs.
const TRACE_EVERY: u32 = 64;
/// Deliveries the sink keeps when the run has no store of its own, to
/// measure `store_bytes_per_rec` on them afterwards.
pub const KEEP_RECORDS: usize = 20_000;
/// Think time of the `query_live` reader between queries: one client
/// that waits for each answer, busy about half the time, so reads and
/// writes share the two cores instead of the reader taking one whole.
const QUERY_THINK: Duration = Duration::from_millis(5);
/// Segment size of the `query_live` store (history and live appends).
pub const QUERY_SEGMENT_BYTES: u64 = 256 << 10;

// ---------------------------------------------------------------- net --

/// Counters of the connection timing wrapper.
#[derive(Default)]
pub struct NetStats {
    pub send_frames: AtomicU64,
    pub send_ns: AtomicU64,
    pub send_bytes: AtomicU64,
    pub recv_frames: AtomicU64,
    pub recv_ns: AtomicU64,
}

/// Times every `send` and every `recv` that returns a frame.
pub struct TimedConn {
    inner: Box<dyn Connection>,
    stats: Arc<NetStats>,
}

impl TimedConn {
    pub fn wrap(inner: Box<dyn Connection>, stats: &Arc<NetStats>) -> Box<dyn Connection> {
        Box::new(TimedConn {
            inner,
            stats: Arc::clone(stats),
        })
    }
}

impl Connection for TimedConn {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.send(frame);
        let s = &self.stats;
        s.send_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        s.send_frames.fetch_add(1, Ordering::Relaxed);
        s.send_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        r
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>> {
        let t = Instant::now();
        let r = self.inner.recv(timeout);
        if let Ok(Some(_)) = &r {
            let s = &self.stats;
            s.recv_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            s.recv_frames.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn poll_fd(&self) -> Option<std::os::unix::io::RawFd> {
        self.inner.poll_fd()
    }

    fn has_buffered(&self) -> bool {
        self.inner.has_buffered()
    }
}

/// Wraps every accepted connection in a [`TimedConn`].
struct TimedListener {
    inner: Box<dyn Listener>,
    stats: Arc<NetStats>,
}

impl Listener for TimedListener {
    fn accept(&mut self, timeout: Option<Duration>) -> Result<Option<Box<dyn Connection>>> {
        Ok(self
            .inner
            .accept(timeout)?
            .map(|c| TimedConn::wrap(c, &self.stats)))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

// --------------------------------------------------------------- sink --

/// Per-hop waits of traced records (µs), from their `X_TRACE` stamps.
pub const HOPS: [&str; 7] = [
    "ringbuf.wait",
    "lis.batch_wait",
    "net.wait",
    "ism.queue_wait",
    "ism.sorter_hold",
    "ism.cre_hold",
    "ism.deliver",
];

fn hop_of(from: TraceStage, to: TraceStage) -> usize {
    use TraceStage::*;
    match (from, to) {
        (_, ExsScoop) => 0,
        (_, BatchSend) => 1,
        // Includes the relay's upstream batching on the relay→root hop.
        (_, PumpRecv) => 2,
        (CreHold | CreRepair, SorterAdmit) | (CreHold, CreRepair) => 5,
        (_, CreHold | CreRepair | SorterAdmit) => 3,
        (_, SorterRelease) => 4,
        _ => 6,
    }
}

/// What the root sink measured; moved out of the sink at shutdown.
#[derive(Default)]
pub struct SinkState {
    pub checker: Checker,
    /// Due → arrival of records due inside the window, per due block.
    pub latency_ns: Blocks,
    /// Deliveries that arrived inside the window, per arrival block.
    pub arrivals: Vec<u64>,
    /// First deliveries (up to `BenchSink::keep`).
    pub kept: Vec<EventRecord>,
    pub hops_us: Vec<Hist>,
    pub traced_records: u64,
    /// Self time of the sink's own `on_record` (traced runs).
    pub on_record_ns: u64,
}

/// The benchmark's root `EventSink`: timestamps every delivery and feeds
/// the checker.
pub struct BenchSink {
    shared: Arc<SinkShared>,
    state: SinkState,
    traced: bool,
    keep: usize,
}

#[derive(Default)]
pub struct SinkShared {
    pub delivered: AtomicU64,
    /// Measured window `[start, end)` on the [`util::now_ns`] clock.
    pub window_start: AtomicI64,
    pub window_end: AtomicI64,
    pub state: Mutex<Option<SinkState>>,
}

impl EventSink for BenchSink {
    fn on_record(&mut self, rec: &EventRecord) -> Result<()> {
        let now = util::now_ns();
        self.shared.delivered.fetch_add(1, Ordering::Relaxed);
        let st = &mut self.state;
        let t0 = self.shared.window_start.load(Ordering::Relaxed);
        let t1 = self.shared.window_end.load(Ordering::Relaxed);
        if (t0..t1).contains(&now) {
            let block = ((now - t0) / BLOCK_NS) as usize;
            if st.arrivals.len() <= block {
                st.arrivals.resize(block + 1, 0);
            }
            st.arrivals[block] += 1;
        }
        match Payload::parse(rec) {
            Some(p) => {
                if (t0..t1).contains(&p.due_ns) {
                    let block = ((p.due_ns - t0) / BLOCK_NS) as usize;
                    st.latency_ns.record(block, (now - p.due_ns).max(0) as u64);
                }
                st.checker.observe_payload(&p);
            }
            None => st.checker.observe(rec),
        }
        if st.kept.len() < self.keep {
            st.kept.push(rec.clone());
        }
        if self.traced {
            if let Some(ctx) = rec.trace() {
                let mut sums = [0u64; HOPS.len()];
                for w in ctx.stamps().windows(2) {
                    let ((from, a), (to, b)) = (w[0], w[1]);
                    sums[hop_of(from, to)] += b.micros_since(a).max(0) as u64;
                }
                for (h, s) in st.hops_us.iter_mut().zip(sums) {
                    h.record(s);
                }
                st.traced_records += 1;
            }
            st.on_record_ns += (util::now_ns() - now) as u64;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        *self.shared.state.lock().expect("sink state lock") = Some(std::mem::take(&mut self.state));
        Ok(())
    }
}

// ----------------------------------------------------------- pipeline --

/// One instrumented node: its sensor port, its clock and its EXS.
pub struct Node {
    pub port: Option<SensorPort>,
    pub clock: Arc<dyn Clock>,
    pub exs: Option<ExsHandle>,
}

/// One ISM tier.
pub struct Tier {
    pub name: &'static str,
    pub handle: Option<IsmHandle>,
    pub registry: Arc<Registry>,
}

/// A set-up pipeline, ready for load.
pub struct Pipeline {
    pub nodes: Vec<Node>,
    /// Root first, then the relay (if any).
    pub tiers: Vec<Tier>,
    pub sink: Arc<SinkShared>,
    /// Sender side of every link (EXS and relay exporter sends).
    pub net_up: Arc<NetStats>,
    /// Receiver side (ISM reads; its sends are acks and sync polls).
    pub net_down: Arc<NetStats>,
    pub store_dir: Option<PathBuf>,
    /// `IsmServer::new` time of the store-owning tier (opens the store).
    pub store_open_ms: f64,
}

/// Everything a run hands to the report.
pub struct Stopped {
    pub reports: Vec<(&'static str, IsmReport)>,
    pub exs: Vec<ExsStats>,
    pub sink: SinkState,
}

pub fn ism_config(workload: Workload, store_dir: Option<&Path>) -> IsmConfig {
    let mut cfg = IsmConfig {
        flow: FlowConfig {
            credit_records: CREDIT_RECORDS,
            ..FlowConfig::default()
        },
        ..IsmConfig::default()
    };
    if workload == Workload::RelayCausal {
        cfg.order_mode = OrderMode::Causal;
    }
    if let Some(dir) = store_dir {
        cfg.store = StoreConfig::at(dir);
        if workload == Workload::QueryLive {
            cfg.store.segment_bytes = QUERY_SEGMENT_BYTES;
        }
    }
    cfg
}

fn sync_config(workload: Workload) -> SyncConfig {
    match workload {
        Workload::RelayCausal => SyncConfig {
            poll_period: RELAY_SYNC_PERIOD,
            ..SyncConfig::default()
        },
        _ => SyncConfig::default(),
    }
}

fn listen(traced: bool, net: &Arc<NetStats>) -> Result<Box<dyn Listener>> {
    let l = TcpTransport.listen("127.0.0.1:0")?;
    Ok(if traced {
        Box::new(TimedListener {
            inner: l,
            stats: Arc::clone(net),
        })
    } else {
        l
    })
}

fn connect(addr: &str, traced: bool, net: &Arc<NetStats>) -> Result<Box<dyn Connection>> {
    let c = TcpTransport.connect(addr)?;
    Ok(if traced { TimedConn::wrap(c, net) } else { c })
}

impl Pipeline {
    /// Build and wire the workload's tiers and nodes, returning once
    /// every tier listens, the store is open and every EXS holds credit.
    pub fn setup(workload: Workload, traced: bool, store_dir: Option<PathBuf>) -> Result<Pipeline> {
        let net_up = Arc::new(NetStats::default());
        let net_down = Arc::new(NetStats::default());
        let sink = Arc::new(SinkShared::default());
        let bench_sink = BenchSink {
            shared: Arc::clone(&sink),
            state: SinkState {
                hops_us: vec![Hist::default(); HOPS.len()],
                ..SinkState::default()
            },
            traced,
            keep: if store_dir.is_none() { KEEP_RECORDS } else { 0 },
        };
        let sync = sync_config(workload);
        let mut tiers = Vec::new();

        let opened = Instant::now();
        let mut root = IsmServer::new(
            ism_config(workload, store_dir.as_deref()),
            sync.clone(),
            Arc::new(SystemClock),
        )?;
        let store_open_ms = opened.elapsed().as_secs_f64() * 1e3;
        let root_reg = Registry::new();
        root.bind_telemetry(&root_reg);
        root.core_mut().add_sink(Box::new(bench_sink));
        let root = root.spawn(listen(traced, &net_down)?)?;
        let mut leaf_addr = root.addr().to_string();
        tiers.push(Tier {
            name: "root",
            handle: Some(root),
            registry: root_reg,
        });

        if workload == Workload::RelayCausal {
            // As `brisk-ismd --upstream`: one corrected clock shared by
            // the relay's server and its exporter, so the root's sync
            // rounds steer the whole subtree.
            let relay_clock = CorrectedClock::new(Arc::new(SystemClock) as Arc<dyn Clock>);
            let mut relay = IsmServer::new(
                ism_config(workload, None),
                sync.clone(),
                Arc::clone(&relay_clock) as Arc<dyn Clock>,
            )?;
            let reg = Registry::new();
            relay.bind_telemetry(&reg);
            let (up, up_net) = (leaf_addr.clone(), Arc::clone(&net_up));
            let exporter = UpstreamExporter::new(
                RelayConfig::new(NodePrefix::new(1)?),
                Box::new(move || connect(&up, traced, &up_net)),
            )
            .with_sync_clock(relay_clock);
            relay.set_upstream(exporter);
            let relay = relay.spawn(listen(traced, &net_down)?)?;
            leaf_addr = relay.addr().to_string();
            tiers.push(Tier {
                name: "relay",
                handle: Some(relay),
                registry: reg,
            });
        }

        let mut nodes = Vec::new();
        for i in 0..workload.nodes() {
            let cfg = ExsConfig {
                stamp_hlc: workload == Workload::RelayCausal,
                trace: if traced {
                    TraceConfig::every(TRACE_EVERY)
                } else {
                    TraceConfig::default()
                },
                ..ExsConfig::default()
            };
            let node = NodeId(i as u32 + 1);
            let fault = (workload == Workload::RelayCausal && i == 1)
                .then(|| FaultClock::new(SystemClock, 0, DRIFT_PPM));
            let clock: Arc<dyn Clock> = match &fault {
                Some(f) => Arc::clone(f) as Arc<dyn Clock>,
                None => Arc::new(SystemClock),
            };
            let lis = Lis::new(node, Arc::new(SystemClock), &cfg);
            let port = lis.register();
            let conn = connect(&leaf_addr, traced, &net_up)?;
            let exs = spawn_exs(node, Arc::clone(lis.rings()), Arc::clone(&clock), conn, cfg)?;
            nodes.push(Node {
                port: Some(port),
                clock,
                exs: Some(exs),
            });
        }

        let p = Pipeline {
            nodes,
            tiers,
            sink,
            net_up,
            net_down,
            store_dir,
            store_open_ms,
        };
        p.wait_ready()?;
        Ok(p)
    }

    fn wait_ready(&self) -> Result<()> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let exs_ready = self.nodes.iter().all(|n| {
                n.exs
                    .as_ref()
                    .is_some_and(|e| e.stats_now().hello_acks >= 1)
            });
            let relay_ready = self.tiers.iter().skip(1).all(|t| {
                t.registry
                    .snapshot()
                    .counter_total("brisk_relay_hello_acks_total")
                    >= 1
            });
            if exs_ready && relay_ready {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(brisk::core::BriskError::Config(
                    "pipeline not ready within 10 s".into(),
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stop leaves first, then the relay, then the root, and collect
    /// every layer's final counters plus the sink's measurements.
    pub fn stop(mut self) -> Result<Stopped> {
        let mut exs = Vec::new();
        for n in &mut self.nodes {
            if let Some(h) = n.exs.take() {
                exs.push(h.stop()?);
            }
        }
        let mut reports = Vec::new();
        for t in self.tiers.iter_mut().rev() {
            if let Some(h) = t.handle.take() {
                reports.push((t.name, h.stop()?));
            }
        }
        let sink = self
            .sink
            .state
            .lock()
            .expect("sink state lock")
            .take()
            .unwrap_or_default();
        Ok(Stopped { reports, exs, sink })
    }
}

// ---------------------------------------------------------- generator --

/// What a generator thread reports.
#[derive(Default)]
pub struct GenReport {
    /// Records offered per node (accepted, plus refused in open loop).
    pub offered: Vec<u64>,
    /// Emits a full ring refused (closed loop: retried, not lost).
    pub refused: u64,
    /// Cost of each accepted notice due inside the window, per block.
    pub notice_ns: Blocks,
    /// Emit time − due time inside the window, open loop only (ns).
    pub lateness_ns: Hist,
}

/// The workload's record sequence, shared by the live generators and
/// the stepped replay so both see the same records for a seed. Closed
/// loop: round-robin over the nodes. Open loop: a seeded node per slot;
/// with pairs, a [`PAIR_SHARE`] of slots start a reason on one node whose
/// consequence takes the next slot on the other node.
pub struct SlotGen {
    rng: Rng,
    round_robin: bool,
    pairs: bool,
    seqs: Vec<u64>,
    slot: u64,
    pending_conseq: Option<(usize, u32)>,
    next_pair: u32,
}

impl SlotGen {
    pub fn new(workload: Workload, seed: u64) -> SlotGen {
        SlotGen {
            rng: Rng::new(seed),
            round_robin: workload.rate().is_none(),
            pairs: workload == Workload::RelayCausal,
            seqs: vec![0; workload.nodes()],
            slot: 0,
            pending_conseq: None,
            next_pair: 0,
        }
    }

    /// The next record, due at `due_ns`.
    pub fn next(&mut self, due_ns: i64) -> Payload {
        let n = self.seqs.len();
        let (node, kind, pair) = match self.pending_conseq.take() {
            Some((node, pair)) => (node, KIND_CONSEQ, pair),
            None if self.pairs && self.rng.chance(PAIR_SHARE) => {
                // Reason on the healthy leaf, consequence on the drifting
                // one: its slow clock stamps consequences before their
                // reasons (tachyons) between sync rounds.
                let node = 0;
                self.pending_conseq = Some((1, self.next_pair));
                self.next_pair += 1;
                (node, KIND_REASON, self.next_pair - 1)
            }
            None => {
                let node = if self.round_robin {
                    (self.slot % n as u64) as usize
                } else {
                    self.rng.below(n as u64) as usize
                };
                (node, KIND_PLAIN, self.rng.below(1 << 20) as u32)
            }
        };
        self.slot += 1;
        let seq = self.seqs[node];
        self.seqs[node] += 1;
        Payload {
            node: node as u32,
            seq,
            due_ns,
            kind,
            pair,
        }
    }

    /// Records handed out per node so far.
    pub fn offered(&self) -> &[u64] {
        &self.seqs
    }
}

/// Emit one record on `port`, timing the application-thread cost of an
/// accepted notice (clock read, field build and ring write) when it was
/// due inside the window.
fn notice(
    port: &mut SensorPort,
    clock: &dyn Clock,
    p: &Payload,
    window: (i64, i64),
    g: &mut GenReport,
) -> bool {
    let t = util::now_ns();
    let ok = port
        .emit(EventTypeId(1 + p.kind as u32), clock.now(), p.fields())
        .unwrap_or(false);
    if ok && (window.0..window.1).contains(&p.due_ns) {
        let block = ((p.due_ns - window.0) / BLOCK_NS) as usize;
        g.notice_ns.record(block, (util::now_ns() - t) as u64);
    }
    ok
}

/// Closed loop: emit while fewer than [`WINDOW_RECORDS`] offered
/// records are undelivered, retrying whenever a ring is full. The due
/// time of a record is its first attempt.
pub fn closed_loop(
    mut ports: Vec<SensorPort>,
    clocks: Vec<Arc<dyn Clock>>,
    mut slots: SlotGen,
    window: (i64, i64),
    sink: Arc<SinkShared>,
) -> GenReport {
    let mut g = GenReport::default();
    let mut offered = 0u64;
    'run: loop {
        while offered - sink.delivered.load(Ordering::Relaxed) >= WINDOW_RECORDS {
            if util::now_ns() >= window.1 {
                break 'run;
            }
            std::thread::sleep(RETRY_BACKOFF);
        }
        let due = util::now_ns();
        if due >= window.1 {
            break;
        }
        let p = slots.next(due);
        let node = p.node as usize;
        // A refused record is retried until accepted, so it is never lost.
        while !notice(&mut ports[node], &*clocks[node], &p, window, &mut g) {
            g.refused += 1;
            std::thread::sleep(RETRY_BACKOFF);
        }
        offered += 1;
    }
    g.offered = slots.offered().to_vec();
    g
}

/// Open loop at `rate` records/s from `start`: every slot is due on a
/// fixed schedule whether or not the pipeline keeps up, and a record a
/// full ring refuses is lost.
pub fn open_loop(
    mut ports: Vec<SensorPort>,
    clocks: Vec<Arc<dyn Clock>>,
    mut slots: SlotGen,
    rate: f64,
    start: i64,
    window: (i64, i64),
) -> GenReport {
    let mut g = GenReport::default();
    let period = 1e9 / rate;
    for slot in 0u64.. {
        let due = start + (slot as f64 * period) as i64;
        if due >= window.1 {
            break;
        }
        // Sleep, never spin: the generator must not take a core from the
        // pipeline. Timer slack makes it wake late and emit the slots
        // that came due meanwhile as a burst; lateness reports the slip.
        util::sleep_until(due);
        let p = slots.next(due);
        let late = util::now_ns() - due;
        if !notice(
            &mut ports[p.node as usize],
            &*clocks[p.node as usize],
            &p,
            window,
            &mut g,
        ) {
            g.refused += 1;
        }
        if due >= window.0 {
            g.lateness_ns.record(late.max(0) as u64);
        }
    }
    g.offered = slots.offered().to_vec();
    g
}

/// The `query_live` reader: a closed loop of seeded queries, each sent
/// [`QUERY_THINK`] after the previous one returned, until the window
/// closes; only queries started inside the window are counted.
pub fn query_loop(dir: PathBuf, span: Span, seed: u64, window: (i64, i64)) -> QueryStats {
    let mut rng = Rng::new(seed ^ 0x0051_5545_5259);
    let mut stats = QueryStats::default();
    loop {
        let start = util::now_ns();
        if start >= window.1 {
            break;
        }
        let counted = start >= window.0;
        query::run_one(&dir, &span, &mut rng, counted.then_some(&mut stats))
            .expect("store query failed");
        std::thread::sleep(QUERY_THINK);
    }
    stats
}

/// Everything one measured run produced.
pub struct RunResult {
    pub setup_s: Vec<f64>,
    pub store_open_ms: Vec<f64>,
    pub gen: GenReport,
    pub queries: Option<QueryStats>,
    /// Per block: process CPU minus the generator threads' CPU (µs).
    pub pipeline_cpu_us: Vec<f64>,
    pub stopped: Stopped,
    pub verdict: Verdict,
    pub drops: u64,
    pub net_up: Arc<NetStats>,
    pub net_down: Arc<NetStats>,
    /// Root sorter frame at the end of the window (µs).
    pub frame_us: i64,
    /// Median relay ack latency (µs), relay workloads only.
    pub relay_ack_p50_us: f64,
    pub exs_window: Vec<ExsStats>,
    pub exs_window_wall_s: f64,
    pub correction_us_max: f64,
    pub buffered_max: i64,
    pub snap_store: StoreSnap,
    pub store_dir: Option<PathBuf>,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// window (%); a disturbed run shows here.
    pub steal_pct: f64,
}

impl RunResult {
    /// Median over blocks of pipeline CPU per record delivered.
    pub fn cpu_us_per_rec(&self) -> f64 {
        let arrivals = &self.stopped.sink.arrivals;
        let per: Vec<f64> = self
            .pipeline_cpu_us
            .iter()
            .zip(arrivals)
            .filter(|(_, &n)| n > 0)
            .map(|(cpu, &n)| cpu / n as f64)
            .collect();
        util::median(&per)
    }
}

/// Store counters read from the root registry at the end of the run.
#[derive(Default, Clone, Copy)]
pub struct StoreSnap {
    pub records: u64,
    pub segments_created: u64,
    pub idx_rebuilds: u64,
    pub fsync_mean_us: f64,
}

fn exs_delta(a: &ExsStats, b: &ExsStats) -> ExsStats {
    ExsStats {
        records_sent: b.records_sent - a.records_sent,
        batches_sent: b.batches_sent - a.batches_sent,
        credit_deferrals: b.credit_deferrals - a.credit_deferrals,
        busy_nanos: b.busy_nanos - a.busy_nanos,
        iterations: b.iterations - a.iterations,
        ..ExsStats::default()
    }
}

fn exs_now(n: &Node) -> ExsStats {
    n.exs.as_ref().map(|e| e.stats_now()).unwrap_or_default()
}

/// Set the pipeline up `setups` times (keeping the last), drive the
/// workload for `seconds`, drain, stop and check the output.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    history: Option<&(PathBuf, Span)>,
    setups: usize,
) -> Result<RunResult> {
    util::reset_peak_rss();
    let mut setup_s = Vec::new();
    let mut store_open_ms = Vec::new();
    let mut kept = None;
    for attempt in 0..setups {
        let dir = match (workload, history) {
            (Workload::QueryLive, Some((dir, _))) => Some(dir.clone()),
            (Workload::SaturateStore, _) => Some(work.join(format!(
                "store-{}-{attempt}",
                if traced { "traced" } else { "untraced" }
            ))),
            _ => None,
        };
        let start = util::now_ns();
        let p = Pipeline::setup(workload, traced, dir.clone())?;
        setup_s.push((util::now_ns() - start) as f64 / 1e9);
        store_open_ms.push(p.store_open_ms);
        if attempt + 1 < setups {
            p.stop()?;
            if workload == Workload::SaturateStore {
                if let Some(d) = &dir {
                    let _ = std::fs::remove_dir_all(d);
                }
            }
        } else {
            kept = Some(p);
        }
    }
    let mut p = kept.expect("at least one set-up");
    let g0 = util::now_ns() + 20_000_000;
    let t0 = g0 + WARMUP.as_nanos() as i64;
    let blocks = (seconds * 1e9 / BLOCK_NS as f64).ceil() as usize;
    let t1 = t0 + (seconds * 1e9) as i64;
    let window = (t0, t1);
    set_window(&p, window);

    let ports: Vec<SensorPort> = p
        .nodes
        .iter_mut()
        .map(|n| {
            n.port
                .take()
                .expect("ports are taken once, by the kept set-up")
        })
        .collect();
    let clocks: Vec<Arc<dyn Clock>> = p.nodes.iter().map(|n| Arc::clone(&n.clock)).collect();
    let sink = Arc::clone(&p.sink);
    let gen = std::thread::Builder::new()
        .name("bench-gen".into())
        .spawn(move || {
            util::sleep_until(g0);
            let slots = SlotGen::new(workload, seed);
            match workload.rate() {
                None => closed_loop(ports, clocks, slots, window, sink),
                Some(rate) => open_loop(ports, clocks, slots, rate, g0, window),
            }
        })
        .map_err(brisk::core::BriskError::Io)?;
    let reader = match (workload, history) {
        (Workload::QueryLive, Some((dir, span))) => {
            let (dir, span) = (dir.clone(), span.clone());
            Some(
                std::thread::Builder::new()
                    .name("bench-query".into())
                    .spawn(move || {
                        util::sleep_until(g0);
                        query_loop(dir, span, seed, window)
                    })
                    .map_err(brisk::core::BriskError::Io)?,
            )
        }
        _ => None,
    };
    // The generator threads' CPU is load, not pipeline work.
    let mut load_clocks = vec![CpuClock::of(&gen)];
    load_clocks.extend(reader.as_ref().map(CpuClock::of));
    let pipeline_cpu =
        || CpuClock::process().us() - load_clocks.iter().map(|c| c.us()).sum::<f64>();

    // Observe the window from the main thread, one block at a time.
    util::sleep_until(t0);
    let steal0 = util::steal_ticks();
    let mut cpu_marks = vec![pipeline_cpu()];
    let exs0: Vec<ExsStats> = p.nodes.iter().map(exs_now).collect();
    let w0 = Instant::now();
    let mut correction_us_max = 0f64;
    let mut buffered_max = 0i64;
    for b in 1..=blocks {
        let edge = (t0 + b as i64 * BLOCK_NS).min(t1);
        while util::now_ns() < edge {
            std::thread::sleep(
                Duration::from_millis(100)
                    .min(Duration::from_nanos((edge - util::now_ns()).max(0) as u64)),
            );
            if util::now_ns() >= edge {
                break;
            }
            for n in &p.nodes {
                if let Some(e) = &n.exs {
                    correction_us_max =
                        correction_us_max.max(e.corrected_clock().correction_us().abs() as f64);
                }
            }
            for t in &p.tiers {
                if let Some(d) = t.registry.snapshot().gauge("brisk_ism_sorter_depth") {
                    buffered_max = buffered_max.max(d);
                }
            }
        }
        cpu_marks.push(pipeline_cpu());
    }
    let pipeline_cpu_us: Vec<f64> = cpu_marks.windows(2).map(|w| w[1] - w[0]).collect();
    let steal1 = util::steal_ticks();
    let steal_pct = 100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    let exs_window_wall_s = w0.elapsed().as_secs_f64();
    let exs1: Vec<ExsStats> = p.nodes.iter().map(exs_now).collect();
    let exs_window = exs0
        .iter()
        .zip(&exs1)
        .map(|(a, b)| exs_delta(a, b))
        .collect();

    let gen = gen.join().expect("generator thread panicked");
    let queries = reader.map(|r| r.join().expect("query thread panicked"));

    // Drain: wait until every accepted record reached the root. Refused
    // closed-loop records were retried, so only open-loop ones are lost.
    let lost_to_rings = if workload.rate().is_some() {
        gen.refused
    } else {
        0
    };
    let accepted = gen.offered.iter().sum::<u64>() - lost_to_rings;
    let deadline = Instant::now() + Duration::from_secs(20);
    while p.sink.delivered.load(Ordering::Relaxed) < accepted && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));

    let snap = p.tiers[0].registry.snapshot();
    let snap_store = StoreSnap {
        records: snap.counter_total("brisk_store_records_total"),
        segments_created: snap.counter_total("brisk_store_segments_created_total"),
        idx_rebuilds: snap.counter_total("brisk_store_idx_rebuilds_total"),
        fsync_mean_us: snap
            .histogram("brisk_store_fsync_micros")
            .map(|h| h.mean())
            .unwrap_or(0.0),
    };
    let frame_us = snap.gauge("brisk_ism_sorter_frame_us").unwrap_or(0);
    let relay_ack_p50_us = p
        .tiers
        .get(1)
        .and_then(|t| {
            t.registry
                .snapshot()
                .histogram("brisk_relay_ack_latency_us")
        })
        .map_or(0.0, |h| h.p50() as f64);
    let (net_up, net_down) = (Arc::clone(&p.net_up), Arc::clone(&p.net_down));
    let store_dir = p.store_dir.clone();
    let stopped = p.stop()?;
    let drops: u64 = stopped
        .reports
        .iter()
        .map(|(_, r)| r.sorter.shed + r.relay.map_or(0, |s| s.rewrite_errors))
        .sum();
    let verdict = stopped
        .sink
        .checker
        .finish(&gen.offered, lost_to_rings, drops);
    Ok(RunResult {
        setup_s,
        store_open_ms,
        gen,
        queries,
        pipeline_cpu_us,
        stopped,
        verdict,
        drops,
        net_up,
        net_down,
        frame_us,
        relay_ack_p50_us,
        exs_window,
        exs_window_wall_s,
        correction_us_max,
        buffered_max,
        snap_store,
        store_dir,
        steal_pct,
    })
}

/// The sink was built before the window was known; hand it the window
/// through its shared block before any record flows.
fn set_window(p: &Pipeline, (t0, t1): (i64, i64)) {
    p.sink.window_end.store(t1, Ordering::Relaxed);
    p.sink.window_start.store(t0, Ordering::Relaxed);
}
