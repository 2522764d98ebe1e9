//! The read side: the seeded query mix (the `brisk-query` call path),
//! the `query_live` store history and the read-back probe.

use crate::util::{self, Blocks, Hist, Rng};
use crate::verify::{Payload, KIND_CONSEQ, KIND_PLAIN, KIND_REASON};
use brisk::core::{
    CorrelationId, EventRecord, EventTypeId, FsyncPolicy, NodeId, Result, SensorId, StoreConfig,
    UtcMicros,
};
use brisk::store::{
    causal_chain, windowed_aggregate, AggSource, CompactConfig, Compactor, Predicate, QueryReport,
    StoreReader, StoreWriter,
};
use std::path::Path;

/// What the query mix may ask about: the time span of the data, its
/// node ids and the reason records a causal chain can start from.
#[derive(Clone, Default)]
pub struct Span {
    pub from_us: i64,
    pub to_us: i64,
    pub nodes: Vec<u32>,
    pub reasons: Vec<(CorrelationId, i64)>,
    /// Records the store holds (the match-ratio estimate's basis).
    pub records: u64,
}

impl Span {
    /// A window of `share` of the span at a random position.
    fn window(&self, rng: &mut Rng, share: f64) -> (i64, i64) {
        let len = ((self.to_us - self.from_us) as f64 * share).max(1.0) as i64;
        let slack = (self.to_us - self.from_us - len).max(1) as u64;
        let from = self.from_us + rng.below(slack) as i64;
        (from, from + len)
    }
}

pub const KINDS: [&str; 4] = ["select_narrow", "select_wide", "window_agg", "chain"];

/// Queries per block of [`QueryStats::blocks`]: enough that a block's
/// p90 has ten queries beyond it.
const QUERY_BLOCK: u64 = 100;

/// Latencies and pruning outcomes of the queries run.
#[derive(Clone, Default)]
pub struct QueryStats {
    /// Latency of every query, in blocks of [`QUERY_BLOCK`] queries.
    pub blocks: Blocks,
    pub kind_ns: [Hist; 4],
    pub segments_total: u64,
    pub segments_scanned: u64,
    pub evicted_under_scan: u64,
    pub records_matched: u64,
    /// Records held by the scanned segments, estimated from the mean
    /// records per segment (the denominator of the match ratio).
    pub records_scanned_est: f64,
}

impl QueryStats {
    fn add(&mut self, kind: usize, ns: u64, r: &QueryReport, records_per_segment: f64) {
        let n: u64 = self.kind_ns.iter().map(|h| h.count()).sum();
        self.blocks.record((n / QUERY_BLOCK) as usize, ns);
        self.kind_ns[kind].record(ns);
        self.segments_total += r.segments_total as u64;
        self.segments_scanned += r.segments_scanned as u64;
        self.evicted_under_scan += r.evicted_under_scan as u64;
        self.records_matched += r.records_matched;
        self.records_scanned_est += r.segments_scanned as f64 * records_per_segment;
    }
}

/// One query as `brisk-query DIR ...` runs it: open the store, select,
/// then aggregate or walk a chain over the selection. Mix: 20 % narrow
/// node × time selects (1 % of the span), 20 % wide selects (a quarter
/// of the span, every node), 30 % windowed aggregations and 30 % causal
/// chains (each over 10 % of the span). No `QueryCache` is attached.
pub fn run_one(
    dir: &Path,
    span: &Span,
    rng: &mut Rng,
    stats: Option<&mut QueryStats>,
) -> Result<()> {
    let kind = match rng.below(10) {
        0 | 1 => 0,
        2 | 3 => 1,
        4..=6 => 2,
        _ => 3,
    };
    let (pred, chain_start) = match kind {
        0 => {
            let (a, b) = span.window(rng, 0.01);
            let node = span.nodes[rng.below(span.nodes.len() as u64) as usize];
            (window_pred(a, b).node(node), None)
        }
        1 => {
            let (a, b) = span.window(rng, 0.25);
            (window_pred(a, b), None)
        }
        2 => {
            let (a, b) = span.window(rng, 0.1);
            (window_pred(a, b), None)
        }
        _ => match span.reasons.is_empty() {
            true => {
                let (a, b) = span.window(rng, 0.1);
                (window_pred(a, b), Some(CorrelationId(0)))
            }
            false => {
                let (id, ts) = span.reasons[rng.below(span.reasons.len() as u64) as usize];
                let half = ((span.to_us - span.from_us) / 20).max(1);
                (window_pred(ts - half, ts + half), Some(id))
            }
        },
    };
    let t = util::now_ns();
    let reader = StoreReader::open(dir)?;
    let (hit, report) = reader.query(&pred)?;
    match kind {
        2 => {
            let window_us = ((span.to_us - span.from_us) / 1_000).max(1);
            std::hint::black_box(windowed_aggregate(&hit.records, window_us, AggSource::Gaps));
        }
        3 => {
            let start = chain_start.expect("chain queries carry a start id");
            std::hint::black_box(causal_chain(&hit.records, start, 64));
        }
        _ => {
            std::hint::black_box(hit.records.len());
        }
    }
    let ns = (util::now_ns() - t) as u64;
    if let Some(stats) = stats {
        let segments = reader.segment_ids()?.len().max(1) as f64;
        let per_segment = span.records as f64 / segments;
        stats.add(kind, ns, &report, per_segment);
    }
    Ok(())
}

fn window_pred(a: i64, b: i64) -> Predicate {
    Predicate::all()
        .since(UtcMicros::from_micros(a))
        .until(UtcMicros::from_micros(b))
}

/// History of the `query_live` store: 120 000 records of four nodes
/// (ids 11–14) spread over 110 s of the past, about 10 % of them in
/// cross-node reason→conseq pairs, in time order as the ISM would have
/// written them. Every sealed segment but the two newest is compacted.
/// Records are appended as they are generated, so building the history
/// does not raise the process's peak RSS.
pub const HISTORY_RECORDS: u64 = 120_000;

pub fn build_history(dir: &Path, seed: u64) -> Result<Span> {
    let mut rng = Rng::new(seed ^ 0x4849_5354);
    let now = UtcMicros::now().as_micros();
    let (from, to) = (now - 120_000_000, now - 10_000_000);
    let step = (to - from) / HISTORY_RECORDS as i64;
    // Test data needs no durability; syncing it would only leave disk
    // traffic behind to disturb the measurement.
    let cfg = StoreConfig {
        segment_bytes: crate::pipeline::QUERY_SEGMENT_BYTES,
        fsync: FsyncPolicy::Never,
        ..StoreConfig::at(dir)
    };
    let mut w = StoreWriter::open(&cfg)?;
    let mut seqs = [0u64; 4];
    let mut span = Span {
        from_us: from,
        nodes: (11..15).collect(),
        ..Span::default()
    };
    let mut pair = 0u32;
    while span.records < HISTORY_RECORDS {
        let ts = from + span.records as i64 * step;
        let node = rng.below(4) as usize;
        let kinds = if rng.chance(0.05) {
            pair += 1;
            vec![(node, KIND_REASON), ((node + 1) % 4, KIND_CONSEQ)]
        } else {
            vec![(node, KIND_PLAIN)]
        };
        for (k, (n, kind)) in kinds.into_iter().enumerate() {
            let p = Payload {
                node: n as u32,
                seq: seqs[n],
                due_ns: 0,
                kind,
                pair: if kind == KIND_PLAIN {
                    rng.below(1_000) as u32
                } else {
                    pair
                },
            };
            seqs[n] += 1;
            let rec = EventRecord::new(
                NodeId(11 + n as u32),
                SensorId(0),
                EventTypeId(1 + kind as u32),
                p.seq,
                UtcMicros::from_micros(ts + k as i64),
                p.fields(),
            )?;
            if let Some(id) = rec.reason_id() {
                span.reasons.push((id, rec.ts.as_micros()));
            }
            span.to_us = rec.ts.as_micros();
            span.records += 1;
            w.append(&rec)?;
        }
    }
    w.seal_active()?;
    drop(w);
    Compactor::new(dir, CompactConfig::default()).run_once()?;
    // Write the history back now, so no writeback of it competes with
    // the queries that follow.
    for e in std::fs::read_dir(dir)? {
        std::fs::File::open(e?.path())?.sync_all()?;
    }
    Ok(span)
}

/// Bytes per record of `records` in a fresh store, as the ISM writes
/// it (plain segments, no compaction): the on-disk cost of a workload's
/// output when its run kept no store of its own.
pub fn plain_bytes_per_rec(records: &[EventRecord], dir: &Path) -> Result<f64> {
    let cfg = StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::at(dir)
    };
    let mut w = StoreWriter::open(&cfg)?;
    for r in records {
        w.append(r)?;
    }
    w.seal_active()?;
    drop(w);
    let (back, _) = StoreReader::open(dir)?.read_all()?;
    if back.len() != records.len() {
        return Err(brisk::core::BriskError::Config(format!(
            "store read-back: stored {} records, read {}",
            records.len(),
            back.len()
        )));
    }
    Ok(util::dir_bytes(dir) as f64 / records.len().max(1) as f64)
}

/// The query mix over a freshly built history with nothing else
/// running: the read path's reference latency on workloads without a
/// live reader.
pub fn idle_probe(dir: &Path, seed: u64, queries: usize) -> Result<QueryStats> {
    let span = build_history(dir, seed)?;
    let mut rng = Rng::new(seed ^ 0x5052_4f42);
    let mut stats = QueryStats::default();
    for _ in 0..queries {
        run_one(dir, &span, &mut rng, Some(&mut stats))?;
    }
    Ok(stats)
}
