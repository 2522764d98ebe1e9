//! Zero-copy ingest cost and reactor saturation.
//!
//! Two experiments in one artifact:
//!
//! 1. **Paired decode cost** — identical pre-encoded `EventBatch` frames
//!    are run through four variants in adjacent slices of the same trial:
//!    the owned decode (`Message::decode`, which the reactor shards run
//!    on every batch frame), the borrowing validate-only pass
//!    (`BatchView::parse`), the borrowing decode (`parse` +
//!    `materialize`), and the whole delivery
//!    baseline (materialize + `IsmCore::push_batch` + `tick`, i.e. the
//!    memory-only pipeline BENCH_store.json measures). Pairing cancels
//!    machine drift; the acceptance bar is that the zero-copy ingest
//!    decode (`view_materialize`) sustains ≥ 2× the records/s of the
//!    in-run delivery baseline — decode is no longer the bottleneck.
//!
//! 2. **Saturation curve** — a real `IsmServer` on TCP with a bounded
//!    reactor pool (2 threads, no per-connection threads, no tokio)
//!    serves 64 / 256 / 1024 concurrent EXS connections, each speaking
//!    the wire protocol (Hello then pre-encoded batches); the curve
//!    records end-to-end records/s into the memory buffer at each level.
//!
//! Set `BENCH_INGEST_JSON=<path>` to emit the machine-readable artifact
//! (`BENCH_ingest.json` at the repo root is generated this way).

use brisk_bench::rig::six_i32_fields;
use brisk_core::{EventRecord, EventTypeId, IsmConfig, NodeId, SensorId, SyncConfig, UtcMicros};
use brisk_ism::{IsmCore, IsmServer};
use brisk_net::{TcpTransport, Transport};
use brisk_proto::{BatchView, Message};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records per `EventBatch` frame.
const BATCH: usize = 64;
/// Frames timed per variant per trial slice.
const FRAMES_PER_TRIAL: usize = 8;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Pre-encode `n` wire frames of `BATCH` records each for `node`.
fn encode_frames(node: NodeId, n: usize, ts_base: i64) -> Vec<Vec<u8>> {
    let mut seq = 0u64;
    (0..n)
        .map(|f| {
            let records: Vec<EventRecord> = (0..BATCH)
                .map(|i| {
                    seq += 1;
                    EventRecord::new(
                        node,
                        SensorId(0),
                        EventTypeId(1),
                        seq,
                        UtcMicros::from_micros(ts_base + (f * BATCH + i) as i64),
                        six_i32_fields(seq),
                    )
                    .unwrap()
                })
                .collect();
            Message::EventBatch {
                node,
                seq: None,
                records,
            }
            .encode()
        })
        .collect()
}

/// Paired decode-cost experiment: four variants over the same frames.
struct PairedResult {
    names: [&'static str; 4],
    medians_ns_per_record: [f64; 4],
}

fn run_paired(trials: usize, warmup: usize) -> PairedResult {
    let frames = encode_frames(NodeId(1), FRAMES_PER_TRIAL, 1_000_000_000);
    let mut core = IsmCore::new(IsmConfig::default()).unwrap();
    let mut now = 2_000_000_000i64;
    let mut samples: [Vec<f64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];

    // The delivery baseline needs fresh timestamps every slice so the
    // sorter keeps releasing (monotone clock) — rebuild records from the
    // views but override ts, exactly once per slice, outside the other
    // variants' timed regions.
    let mut run_slice = |variant: usize, timed: bool| -> f64 {
        let start = Instant::now();
        match variant {
            0 => {
                for f in &frames {
                    black_box(Message::decode(f).unwrap());
                }
            }
            1 => {
                for f in &frames {
                    black_box(BatchView::parse(f).unwrap());
                }
            }
            2 => {
                for f in &frames {
                    black_box(BatchView::parse(f).unwrap().materialize().unwrap());
                }
            }
            _ => {
                for f in &frames {
                    let mut records = BatchView::parse(f).unwrap().materialize().unwrap();
                    for r in records.iter_mut() {
                        now += 1;
                        r.override_ts(UtcMicros::from_micros(now));
                    }
                    core.push_batch(records, UtcMicros::from_micros(now))
                        .unwrap();
                    let released = core.tick(UtcMicros::from_micros(now + 10_000_000)).unwrap();
                    black_box(released);
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64;
        if timed {
            ns / (FRAMES_PER_TRIAL * BATCH) as f64
        } else {
            0.0
        }
    };

    for _ in 0..warmup {
        for v in 0..4 {
            run_slice(v, false);
        }
    }
    for _ in 0..trials {
        for (v, s) in samples.iter_mut().enumerate() {
            let ns_per_record = run_slice(v, true);
            s.push(ns_per_record);
        }
    }

    PairedResult {
        names: [
            "decode_owned",
            "view_validate",
            "view_materialize",
            "deliver_baseline",
        ],
        medians_ns_per_record: [
            median(&samples[0]),
            median(&samples[1]),
            median(&samples[2]),
            median(&samples[3]),
        ],
    }
}

/// One point on the saturation curve: `conns` live EXS connections on a
/// bounded reactor pool, each replaying a pre-encoded batch `rounds`
/// times; returns end-to-end records/s into the memory buffer.
fn saturation_point(conns: usize, rounds: usize, reactor_threads: usize) -> f64 {
    let server = IsmServer::new(
        IsmConfig {
            pump_threads: reactor_threads,
            ..IsmConfig::default()
        },
        SyncConfig {
            poll_period: Duration::from_secs(600),
            ..SyncConfig::default()
        },
        Arc::new(brisk_clock::SystemClock),
    )
    .unwrap();
    let ism = server
        .spawn(TcpTransport.listen("127.0.0.1:0").unwrap())
        .unwrap();
    let addr = ism.addr().to_string();

    // v1 peers: no HelloAck, no acks — the client side never has to read,
    // so one sender thread can multiplex hundreds of connections.
    let mut clients = Vec::with_capacity(conns);
    for c in 0..conns {
        let node = NodeId(c as u32 + 1);
        let mut conn = TcpTransport.connect(&addr).unwrap();
        conn.send(&Message::Hello { node, version: 1 }.encode())
            .unwrap();
        let frame = encode_frames(node, 1, 1_000_000_000).remove(0);
        clients.push((conn, frame));
    }

    let total = (conns * rounds * BATCH) as u64;
    let start = Instant::now();
    // Interleave across connections so every socket is live at once: the
    // reactor sees `conns` concurrently-readable fds, not a sequential
    // parade. v1 batches carry no seq, so replaying one frame per round
    // is `rounds` distinct deliveries.
    for _ in 0..rounds {
        for (conn, frame) in clients.iter_mut() {
            conn.send(frame).unwrap();
        }
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while ism.memory().written() < total {
        assert!(
            Instant::now() < deadline,
            "saturation point stalled: {}/{total} records at {conns} conns",
            ism.memory().written()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let secs = start.elapsed().as_secs_f64();
    drop(clients);
    ism.stop().unwrap();
    total as f64 / secs
}

fn main() {
    let trials = env_usize("BENCH_INGEST_TRIALS", 300);
    let warmup = env_usize("BENCH_INGEST_WARMUP", 100);
    let rounds = env_usize("BENCH_INGEST_ROUNDS", 8);
    let reactor_threads = env_usize("BENCH_INGEST_REACTOR_THREADS", 2);

    let paired = run_paired(trials, warmup);
    for (name, med) in paired.names.iter().zip(paired.medians_ns_per_record.iter()) {
        println!(
            "bench ingest/{name} median {med:.1} ns/record {:.0} records/s",
            1e9 / med
        );
    }
    let ingest_rps = 1e9 / paired.medians_ns_per_record[2];
    let deliver_rps = 1e9 / paired.medians_ns_per_record[3];
    let speedup = ingest_rps / deliver_rps;
    let pass = speedup >= 2.0;
    println!(
        "ingest view_materialize vs deliver_baseline: {speedup:.1}x \
         ({trials} paired trials)  acceptance(>= 2x): {}",
        if pass { "PASS" } else { "FAIL" }
    );

    let levels = [64usize, 256, 1024];
    let mut curve = Vec::new();
    for &conns in &levels {
        let rps = saturation_point(conns, rounds, reactor_threads);
        println!(
            "bench ingest/saturation conns={conns} reactor_threads={reactor_threads} \
             {rps:.0} records/s"
        );
        curve.push((conns, rps));
    }

    if let Ok(path) = std::env::var("BENCH_INGEST_JSON") {
        let mut out = String::from("{\n");
        out.push_str("  \"artifact\": \"zero-copy ingest decode cost and reactor saturation\",\n");
        out.push_str(&format!(
            "  \"method\": \"cargo bench -p brisk-bench --bench ingest (paired interleaved \
             trials over identical pre-encoded {BATCH}-record frames: Message::decode (shard \
             decode) vs BatchView::parse (validate only) vs parse+materialize vs the full \
             memory-only delivery baseline; saturation: one IsmServer on TCP with a bounded \
             {reactor_threads}-thread poll reactor — no per-connection threads, no tokio — \
             serving N concurrent v1 EXS connections each sending {rounds} batches)\",\n"
        ));
        out.push_str(&format!("  \"trials\": {trials},\n"));
        out.push_str("  \"results\": [\n");
        for (i, (name, med)) in paired
            .names
            .iter()
            .zip(paired.medians_ns_per_record.iter())
            .enumerate()
        {
            out.push_str(&format!(
                "    {{\"bench\": \"ingest/{name}\", \"median_ns_per_record\": {med:.1}, \
                 \"records_per_sec\": {:.0}}}{}\n",
                1e9 / med,
                if i + 1 < paired.names.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"saturation\": [\n");
        for (i, (conns, rps)) in curve.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"connections\": {conns}, \"reactor_threads\": {reactor_threads}, \
                 \"records_per_sec\": {rps:.0}}}{}\n",
                if i + 1 < curve.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"summary\": {\n");
        out.push_str(&format!(
            "    \"view_materialize_records_per_sec\": {ingest_rps:.0},\n"
        ));
        out.push_str(&format!(
            "    \"deliver_baseline_records_per_sec\": {deliver_rps:.0},\n"
        ));
        out.push_str(&format!("    \"speedup_vs_deliver\": {speedup:.2},\n"));
        out.push_str(
            "    \"acceptance\": \"view_materialize >= 2x deliver_baseline records/s; \
             >= 1024 concurrent connections on a bounded reactor pool\",\n",
        );
        out.push_str(&format!("    \"pass\": {pass}\n"));
        out.push_str("  }\n}\n");
        std::fs::write(&path, out).expect("write BENCH_INGEST_JSON");
        println!("wrote {path}");
    }
}
