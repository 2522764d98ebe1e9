//! Workspace integration tests for the durable trace store: an ISM killed
//! mid-segment under load must lose nothing that was durable, and
//! `brisk-load --replay` must re-drive the stored trace in the exact order
//! the live pipeline delivered it.

use brisk::prelude::*;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "brisk-e2e-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Spawn the real `brisk-ismd` binary with a durable store, parse the bound
/// address off its stderr, and keep draining stderr in the background so
/// the pipe never fills.
fn spawn_ismd(dir: &std::path::Path, extra: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_brisk-ismd"));
    cmd.arg("--tcp")
        .arg("127.0.0.1:0")
        .arg("--store-dir")
        .arg(dir)
        .args(extra)
        .stdin(Stdio::piped()) // held open: ismd stops on stdin EOF
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn brisk-ismd");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let mut addr = None;
    for line in &mut lines {
        let line = line.expect("ismd stderr");
        if let Some(rest) = line.strip_prefix("brisk-ismd listening on ") {
            addr = Some(rest.trim().to_string());
            break;
        }
    }
    let addr = addr.expect("ismd printed its listen address");
    std::thread::spawn(move || for _ in lines.by_ref() {});
    (child, addr)
}

fn batch(node: u32, seq: u64, recs: std::ops::Range<u64>) -> Message {
    Message::EventBatch {
        node: NodeId(node),
        seq,
        records: recs
            .map(|i| {
                EventRecord::new(
                    NodeId(node),
                    SensorId(0),
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

/// Block until the ISM's cumulative `BatchAck` covers batch `upto`.
fn await_ack(conn: &mut Box<dyn Connection>, upto: u64, budget: Duration) {
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        if let Ok(Some(frame)) = conn.recv(Some(Duration::from_millis(20))) {
            if let Ok(Message::BatchAck { seq, .. }) = Message::decode(&frame) {
                if seq >= upto {
                    return;
                }
            }
        }
    }
    panic!("no cumulative ack up to batch {upto} within {budget:?}");
}

/// Tentpole e2e: SIGKILL a `brisk-ismd --store-dir --fsync always` process
/// mid-segment while batches are in flight. Reopening the store must
/// recover **every** record that was durable before the kill — with
/// `fsync always` that is every record the sorter had released — with zero
/// CRC-valid records lost, and repair must account for any torn tail.
#[test]
fn killed_ism_loses_no_durable_records() {
    let dir = temp_dir("crash");
    // Tiny segments so the load spans many rotations and the kill lands
    // mid-segment with high probability.
    let (mut child, addr) = spawn_ismd(&dir, &["--fsync", "always", "--segment-bytes", "4096"]);

    let mut conn = TcpTransport.connect(&addr).unwrap();
    conn.send(
        &Message::Hello {
            node: NodeId(1),
            version: brisk::proto::VERSION,
        }
        .encode(),
    )
    .unwrap();

    // Checkpoint phase: 20 acked batches of 50 records, then wait until all
    // 1000 have drained through the sorter onto disk (fsync=always means a
    // record on disk is a record that survives SIGKILL). Batch sequence
    // numbers are 1-based: the dedup window treats seq 0 as already seen.
    const CHECKPOINT: u64 = 1000;
    for b in 0..20u64 {
        conn.send(&batch(1, b + 1, b * 50..(b + 1) * 50).encode())
            .unwrap();
        await_ack(&mut conn, b + 1, Duration::from_secs(5));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (recs, _) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        if recs.len() as u64 >= CHECKPOINT {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "checkpoint records never became durable ({}/{CHECKPOINT})",
            recs.len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Load phase: keep batches streaming and kill the manager abruptly
    // (SIGKILL — no orderly shutdown, no seal, no final fsync).
    for b in 20..30u64 {
        conn.send(&batch(1, b + 1, b * 50..(b + 1) * 50).encode())
            .unwrap();
    }
    child.kill().expect("kill ismd");
    child.wait().expect("reap ismd");

    // Recovery: everything CRC-valid on disk is recovered; the checkpoint
    // records are all there exactly once.
    let (recs, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
    assert_eq!(report.corrupt_frames, 0, "no CRC-valid record may be lost");
    let seqs: std::collections::BTreeSet<u64> = recs.iter().map(|r| r.seq).collect();
    assert_eq!(seqs.len(), recs.len(), "no duplicates after the crash");
    for s in 0..CHECKPOINT {
        assert!(seqs.contains(&s), "durable record {s} lost in the crash");
    }

    // Repair-on-reopen: a writer opening the crashed store truncates any
    // torn tail (counted in its stats — the telemetry series the reopened
    // ISM exports) and must preserve every intact record.
    let mut cfg = StoreConfig::at(dir.clone());
    cfg.segment_bytes = 4096;
    cfg.fsync = FsyncPolicy::Always;
    let writer = StoreWriter::open(&cfg).unwrap();
    let repairs = writer
        .stats()
        .torn_tail_truncations
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        repairs,
        u64::from(report.torn_tail_truncations),
        "writer repair and reader scan must agree on torn tails"
    );
    drop(writer);
    let (after, report2) = StoreReader::open(&dir).unwrap().read_all().unwrap();
    assert_eq!(
        after.len(),
        recs.len(),
        "repair must not drop intact records"
    );
    assert_eq!(
        report2.torn_tail_truncations, 0,
        "store is clean after repair"
    );
    assert_eq!(report2.corrupt_frames, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stale-sidecar crash window e2e: SIGKILL the manager, then simulate the
/// worst seal-window outcome — the sidecar index survived on disk but the
/// tail of its segment's data never did (the sidecar used to be written
/// without fsync, so the reverse was also possible). A reopening writer
/// must distrust the sidecar, rebuild it from the segment bytes, truncate
/// the torn data, and lose nothing that is intact.
#[test]
fn stale_sidecar_after_kill_is_rebuilt_not_trusted() {
    let dir = temp_dir("stale-idx");
    let (mut child, addr) = spawn_ismd(&dir, &["--fsync", "always", "--segment-bytes", "4096"]);
    let mut conn = TcpTransport.connect(&addr).unwrap();
    conn.send(
        &Message::Hello {
            node: NodeId(1),
            version: brisk::proto::VERSION,
        }
        .encode(),
    )
    .unwrap();
    for b in 0..10u64 {
        conn.send(&batch(1, b + 1, b * 50..(b + 1) * 50).encode())
            .unwrap();
        await_ack(&mut conn, b + 1, Duration::from_secs(5));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (recs, _) = StoreReader::open(&dir).unwrap().read_all().unwrap();
        if recs.len() >= 500 {
            break;
        }
        assert!(Instant::now() < deadline, "records never became durable");
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("kill ismd");
    child.wait().expect("reap ismd");

    // Engineer the stale-sidecar state on a sealed segment: its index is
    // intact, but part of the segment data it describes vanishes.
    let reader = StoreReader::open(&dir).unwrap();
    let sealed_with_idx = reader
        .segment_ids()
        .unwrap()
        .into_iter()
        .find(|&id| reader.load_index(id).is_some())
        .expect("at least one sealed, indexed segment");
    let seg = brisk::store::segment::segment_path(&dir, sealed_with_idx);
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);
    drop(reader);

    let mut cfg = StoreConfig::at(dir.clone());
    cfg.segment_bytes = 4096;
    cfg.fsync = FsyncPolicy::Always;
    let writer = StoreWriter::open(&cfg).unwrap();
    assert!(
        writer
            .stats()
            .idx_rebuilds
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "the stale sidecar must be detected and rebuilt"
    );
    drop(writer);
    let (recs, report) = StoreReader::open(&dir).unwrap().read_all().unwrap();
    assert_eq!(report.torn_tail_truncations, 0, "store clean after repair");
    assert_eq!(report.corrupt_frames, 0);
    let seqs: std::collections::BTreeSet<u64> = recs.iter().map(|r| r.seq).collect();
    assert_eq!(seqs.len(), recs.len(), "no duplicates after repair");
    assert!(recs.len() >= 499, "at most the torn record is lost");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay fidelity e2e: run a live pipeline (EXS → ISM with a store),
/// record the live delivery order with an [`OrderChecker`], then re-drive
/// the stored trace through `brisk-load --replay` and demand the identical
/// order-check result — same totals, same inversions, same gaps.
#[test]
fn replay_order_matches_live_order() {
    let dir = temp_dir("replay");
    let transport = MemTransport::new();
    let listener = transport.listen("ism").unwrap();
    let cfg = IsmConfig {
        store: StoreConfig::at(dir.clone()),
        ..Default::default()
    };
    let server = IsmServer::new(cfg, SyncConfig::default(), Arc::new(SystemClock)).unwrap();
    let ism = server.spawn(listener).unwrap();
    let mut reader = ism.memory().reader();

    let clock = Arc::new(SystemClock);
    let exs_cfg = ExsConfig::default();
    let lis = Lis::new(NodeId(3), Arc::clone(&clock), &exs_cfg);
    let exs = spawn_exs(
        NodeId(3),
        Arc::clone(lis.rings()),
        clock,
        transport.connect("ism").unwrap(),
        exs_cfg,
    )
    .unwrap();
    let mut port = lis.register();
    const N: u64 = 2000;
    for i in 0..N {
        notice!(port, lis.clock(), EventTypeId(1), i as i64);
    }

    // Observe the live delivery order exactly as a consumer would.
    let mut live = OrderChecker::new();
    let deadline = Instant::now() + Duration::from_secs(15);
    while live.total() < N && Instant::now() < deadline {
        let (recs, missed) = reader.poll().unwrap();
        assert_eq!(missed, 0, "consumer kept up; nothing evicted");
        for r in &recs {
            live.observe(r);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(live.total(), N, "live pipeline delivered everything");
    exs.stop().unwrap();
    ism.stop().unwrap(); // orderly stop seals the store

    // Re-drive the sealed trace through the real replay binary.
    let out = Command::new(env!("CARGO_BIN_EXE_brisk-load"))
        .arg("--replay")
        .arg(&dir)
        .output()
        .expect("run brisk-load --replay");
    assert!(out.status.success(), "replay exited cleanly");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let check = stderr
        .lines()
        .find(|l| l.contains("order check:"))
        .unwrap_or_else(|| panic!("no order-check line in replay output:\n{stderr}"));
    // "brisk-load: order check: N records, M inversions (rate R), max
    //  inversion U us, G sequence gaps"
    let nums: Vec<u64> = check
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    let (total, inversions) = (nums[0], nums[1]);
    let gaps = *nums.last().unwrap();
    assert_eq!(total, live.total(), "replay re-drove every stored record");
    assert_eq!(
        inversions,
        live.inversions(),
        "replay order must equal the live delivery order"
    );
    assert_eq!(gaps, live.seq_gaps(), "same sequence-gap picture on replay");
    let _ = std::fs::remove_dir_all(&dir);
}
