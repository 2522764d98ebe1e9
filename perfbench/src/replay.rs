//! The ledger: a single-threaded, stepped replay of the workload's
//! records through each layer's public entry point in pipeline order.
//!
//! One thread calls `SensorPort::emit`, `ExternalSensor::step`,
//! `Message::encode`, `BatchView::parse`/`materialize`,
//! `IsmCore::push_batch_seq`/`tick` and `StoreWriter::append` (or, on
//! `relay_causal`, a relay-mode `IsmCore` exporting over an in-memory
//! link to a root `IsmCore`), timing each call. Each row is a call's
//! self time per record; the wall time of the whole replay is the
//! single-threaded end-to-end cost the rows should add up to. Clocks are
//! not faulted here: the replay prices each layer's per-record work, not
//! the CRE's repairs.

use crate::pipeline::{ism_config, SlotGen, Workload};
use crate::util;
use brisk::core::{EventTypeId, ExsConfig, NodeId, Result, StoreConfig, UtcMicros};
use brisk::ism::{IsmCore, MemoryBuffer, MemoryBufferReader, RelayConfig, UpstreamExporter};
use brisk::lis::{ExternalSensor, Lis};
use brisk::net::{Connection, MemTransport, Transport};
use brisk::prelude::{Clock, Hlc, SystemClock};
use brisk::proto::{is_batch_tag, peek_tag, BatchView, Message, NodePrefix};
use brisk::store::StoreWriter;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Generator records emitted between EXS steps.
const CHUNK: usize = 1_024;
/// Records per replay pass.
pub const RECORDS: usize = 60 * CHUNK;
/// Measured passes (after one warm-up); each row reports its median.
const PASSES: usize = 5;

/// What a ledger row times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A layer's entry point on the pipeline path: summed.
    Layer,
    /// Timed beside the pipeline; its work already sits inside another
    /// row, so the sum leaves it out.
    Inside,
    /// The replay's own plumbing (record generation, the in-memory link,
    /// collecting released records): summed apart from the layers.
    Glue,
}

/// One ledger row: ns per record of one entry point.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: &'static str,
    pub ns_per_rec: f64,
    pub kind: Kind,
}

#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub rows: Vec<Row>,
    /// Wall time of the whole replay per record.
    pub total_ns_per_rec: f64,
}

impl Ledger {
    pub fn sum(&self, kind: Kind) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.ns_per_rec)
            .sum()
    }

    /// Share of the single-threaded total that no row accounts for:
    /// `(total − layers − glue) / total`, in percent.
    pub fn gap_pct(&self) -> f64 {
        100.0 * (self.total_ns_per_rec - self.sum(Kind::Layer) - self.sum(Kind::Glue))
            / self.total_ns_per_rec
    }

    pub fn row(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.ns_per_rec)
    }
}

#[derive(Default)]
struct Times {
    emit: u64,
    step: u64,
    encode: u64,
    parse: u64,
    materialize: u64,
    push: u64,
    tick: u64,
    append: u64,
    memory_sink: u64,
    relay_tick: u64,
    root_parse: u64,
    root_materialize: u64,
    root_push: u64,
    root_tick: u64,
    glue_gen: u64,
    glue_link: u64,
    glue_collect: u64,
    records: u64,
    total: u64,
}

fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = util::now_ns();
    let out = f();
    *acc += (util::now_ns() - t) as u64;
    out
}

/// One ISM hop of the replay: its core, its inbound links and a reader
/// on its memory buffer (to collect what a tick released).
struct Hop {
    core: IsmCore,
    links: Vec<Box<dyn Connection>>,
    released: MemoryBufferReader,
}

/// Per-hop accumulators of [`ingest`].
struct HopTimes<'a> {
    parse: &'a mut u64,
    materialize: &'a mut u64,
    push: &'a mut u64,
    tick: &'a mut u64,
    link: &'a mut u64,
    /// Times `Message::encode` of each batch when set: the encode the
    /// leaf's `ExternalSensor::step` performed, which its row excludes.
    encode: Option<&'a mut u64>,
}

/// Pull every pending frame off `hop`'s links through parse →
/// materialize → push_batch → tick.
fn ingest(hop: &mut Hop, t: HopTimes) -> Result<()> {
    let HopTimes {
        parse,
        materialize,
        push,
        tick,
        link,
        mut encode,
    } = t;
    for i in 0..hop.links.len() {
        loop {
            let frame = match timed(link, || hop.links[i].recv(Some(Duration::ZERO))) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                // A finished leaf closes its link once drained.
                Err(e) if e.is_disconnect() => break,
                Err(e) => return Err(e),
            };
            if !peek_tag(&frame).is_some_and(is_batch_tag) {
                continue; // Hello / Shutdown / heartbeats
            }
            let view = timed(parse, || BatchView::parse(&frame))?;
            let mut records = timed(materialize, || view.materialize())?;
            let (node, seq) = (view.node(), view.seq());
            if let Some(acc) = encode.as_deref_mut() {
                let msg = Message::EventBatch { node, seq, records };
                std::hint::black_box(timed(acc, || msg.encode()));
                let Message::EventBatch { records: back, .. } = msg else {
                    unreachable!("built as an EventBatch above")
                };
                records = back;
            }
            timed(push, || {
                hop.core
                    .push_batch_seq(node, seq, records, UtcMicros::now())
            })?;
            timed(tick, || hop.core.tick(UtcMicros::now()))?;
        }
    }
    Ok(())
}

fn pass(workload: Workload, seed: u64, dir: &Path) -> Result<Times> {
    let mut t = Times::default();
    let mem = MemTransport::new();
    let mut listener = mem.listen("ism")?;
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let cfg = ExsConfig {
        stamp_hlc: workload == Workload::RelayCausal,
        ..ExsConfig::default()
    };
    let mut ports = Vec::new();
    let mut leaves = Vec::new();
    let mut links = Vec::new();
    for i in 0..workload.nodes() {
        let node = NodeId(i as u32 + 1);
        let lis = Lis::new(node, Arc::new(SystemClock), &cfg);
        ports.push(lis.register());
        let conn = mem.connect("ism")?;
        links.push(
            listener
                .accept(Some(Duration::from_secs(1)))?
                .expect("in-memory accept"),
        );
        let rings = Arc::clone(lis.rings());
        leaves.push((
            rings.clone(),
            ExternalSensor::new(node, rings, Arc::clone(&clock), conn, cfg.clone())?,
        ));
    }
    let mut first = IsmCore::new(ism_config(workload, None))?;
    let released = first.memory().reader();
    let (mut root, mut root_listener) = (None, None);
    if workload == Workload::RelayCausal {
        let up = Arc::clone(&mem);
        root_listener = Some(mem.listen("root")?);
        first.set_upstream(UpstreamExporter::new(
            RelayConfig::new(NodePrefix::new(1)?),
            Box::new(move || up.connect("root")),
        ));
        let core = IsmCore::new(ism_config(workload, None))?;
        let released = core.memory().reader();
        root = Some(Hop {
            core,
            links: Vec::new(),
            released,
        });
    }
    let mut hop = Hop {
        core: first,
        links,
        released,
    };
    let mut store = match workload {
        Workload::RelayCausal => None,
        _ => Some(StoreWriter::open(&StoreConfig::at(dir))?),
    };
    let scratch = MemoryBuffer::new(8 << 20);

    let mut slots = SlotGen::new(workload, seed);
    let start = util::now_ns();
    while (t.records as usize) < RECORDS {
        let chunk: Vec<_> = timed(&mut t.glue_gen, || {
            (0..CHUNK).map(|_| slots.next(util::now_ns())).collect()
        });
        t.records += CHUNK as u64;
        timed(&mut t.emit, || {
            for p in &chunk {
                let port = &mut ports[p.node as usize];
                let _ = port.emit(EventTypeId(1 + p.kind as u32), clock.now(), p.fields());
            }
        });
        for (rings, exs) in &mut leaves {
            while !rings.is_empty() {
                timed(&mut t.step, || exs.step())?;
            }
        }
        drive(&mut hop, &mut root, &mut root_listener, &mut t, false)?;
        collect(&mut hop, &mut root, &mut store, &scratch, &mut t)?;
    }
    // Teardown flushes the leaves' partial batches, then a far-future
    // tick releases whatever the sorters and the CRE still hold.
    for (_, exs) in leaves {
        timed(&mut t.step, || exs.finish())?;
    }
    drive(&mut hop, &mut root, &mut root_listener, &mut t, true)?;
    collect(&mut hop, &mut root, &mut store, &scratch, &mut t)?;
    if let Some(s) = &mut store {
        timed(&mut t.append, || s.sync())?;
    }
    t.total = (util::now_ns() - start) as u64;
    Ok(t)
}

/// Move frames from the leaves through the first hop (and, on
/// `relay_causal`, through the relay's export into the root hop).
fn drive(
    hop: &mut Hop,
    root: &mut Option<Hop>,
    root_listener: &mut Option<Box<dyn brisk::net::Listener>>,
    t: &mut Times,
    last: bool,
) -> Result<()> {
    let tick_acc = if root.is_some() {
        &mut t.relay_tick
    } else {
        &mut t.tick
    };
    ingest(
        hop,
        HopTimes {
            parse: &mut t.parse,
            materialize: &mut t.materialize,
            push: &mut t.push,
            tick: &mut *tick_acc,
            link: &mut t.glue_link,
            encode: Some(&mut t.encode),
        },
    )?;
    if last {
        let far = UtcMicros::now().offset(10_000_000);
        timed(tick_acc, || hop.core.tick(far))?;
        // The relay's partial upstream batch leaves on its flush timeout.
        timed(tick_acc, || hop.core.tick(far.offset(1_000_000)))?;
    }
    if let Some(r) = root {
        if let Some(l) = root_listener {
            while let Some(c) = l.accept(Some(Duration::ZERO))? {
                r.links.push(c);
            }
        }
        ingest(
            r,
            HopTimes {
                parse: &mut t.root_parse,
                materialize: &mut t.root_materialize,
                push: &mut t.root_push,
                tick: &mut t.root_tick,
                link: &mut t.glue_link,
                encode: None,
            },
        )?;
        if last {
            let far = UtcMicros::now().offset(20_000_000);
            timed(&mut t.root_tick, || r.core.tick(far))?;
        }
    }
    Ok(())
}

/// Collect what the last hop released and time the store append (and,
/// beside the ledger, the memory-buffer write a tick already contains).
fn collect(
    hop: &mut Hop,
    root: &mut Option<Hop>,
    store: &mut Option<StoreWriter>,
    scratch: &Arc<MemoryBuffer>,
    t: &mut Times,
) -> Result<()> {
    let last = root.as_mut().unwrap_or(hop);
    let (released, _) = timed(&mut t.glue_collect, || last.released.poll())?;
    timed(&mut t.memory_sink, || {
        for r in &released {
            scratch.write(r);
        }
    });
    if let Some(s) = store {
        timed(&mut t.append, || -> Result<()> {
            for r in &released {
                s.append(r)?;
            }
            Ok(())
        })?;
    }
    Ok(())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Run the replay and build the ledger for `workload`.
pub fn ledger(workload: Workload, seed: u64, work: &Path) -> Result<Ledger> {
    let mut passes = Vec::new();
    for i in 0..=PASSES {
        let dir = work.join(format!("replay-{i}"));
        let t = pass(workload, seed, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        if i > 0 {
            passes.push(t);
        }
    }
    let per = |f: fn(&Times) -> u64| {
        median(
            passes
                .iter()
                .map(|t| f(t) as f64 / t.records as f64)
                .collect(),
        )
    };
    let row = |name, f: fn(&Times) -> u64, kind| Row {
        name,
        ns_per_rec: per(f),
        kind,
    };
    use Kind::{Glue, Inside, Layer};
    let mut rows = vec![
        row("lis.emit", |t| t.emit, Layer),
        row(
            "lis.exs_step_self",
            |t| t.step.saturating_sub(t.encode),
            Layer,
        ),
        row("proto.encode", |t| t.encode, Layer),
        row("proto.parse", |t| t.parse, Layer),
        row("proto.materialize", |t| t.materialize, Layer),
        row("ism.push_batch", |t| t.push, Layer),
    ];
    if workload == Workload::RelayCausal {
        rows.extend([
            row("relay.tick_export", |t| t.relay_tick, Layer),
            row("root.parse", |t| t.root_parse, Layer),
            row("root.materialize", |t| t.root_materialize, Layer),
            row("root.push_batch", |t| t.root_push, Layer),
            row("ism.tick", |t| t.root_tick, Layer),
        ]);
    } else {
        rows.extend([
            row("ism.tick", |t| t.tick, Layer),
            row("store.append", |t| t.append, Layer),
        ]);
    }
    rows.extend([
        row("ism.memory_sink", |t| t.memory_sink, Inside),
        Row {
            name: "clock.hlc_stamp",
            ns_per_rec: hlc_stamp_ns(),
            kind: Inside,
        },
        row("glue.generate", |t| t.glue_gen, Glue),
        row("glue.link_recv", |t| t.glue_link, Glue),
        row("glue.collect", |t| t.glue_collect, Glue),
    ]);
    Ok(Ledger {
        rows,
        total_ns_per_rec: per(|t| t.total),
    })
}

/// Cost of one `Hlc::tick`, the per-record stamp the EXS adds at scoop
/// in causal workloads (inside `lis.exs_step_self`).
fn hlc_stamp_ns() -> f64 {
    const N: u64 = 200_000;
    let hlc = Hlc::new();
    let now = UtcMicros::now();
    let t = util::now_ns();
    for i in 0..N {
        std::hint::black_box(hlc.tick(now.offset((i / 64) as i64)));
    }
    (util::now_ns() - t) as f64 / N as f64
}
