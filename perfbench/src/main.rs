//! `perfbench` — the end-to-end benchmark of the BRISK pipeline.
//!
//! ```text
//! perfbench --workload <saturate_store|relay_causal|query_live>
//!           --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). Each run sets the production pipeline
//! up in one process (sensors + EXS → TCP loopback → in-process
//! `IsmServer` tiers, protocol v3 with acks and credit), drives the
//! workload for `S` measured seconds after a warm-up, checks every
//! delivered record at the root and prints a human-readable report
//! followed by one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, replays it single-threaded through
//! each layer's entry point, and reports the per-layer metrics, the
//! ledger, the per-hop waits and the tracing overhead.
//!
//! Exit status: 0 on a correct run, 1 when a check fails or the
//! generator fell behind, 2 on usage errors.

mod pipeline;
mod query;
mod replay;
mod util;
mod verify;

use pipeline::{RunResult, Workload, HOPS, WARMUP};
use query::{QueryStats, KINDS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use util::median;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Queries of the idle reference probe on workloads without a live reader.
const PROBE_QUERIES: usize = 2_000;
/// An open-loop generator whose median lateness exceeds the first, or
/// whose p99 lateness exceeds the second, fell behind its schedule and
/// the run is invalid. Shorter stalls (a descheduled generator on a
/// busy host) are not: latency is timed from the due time, so they
/// already show there.
const MAX_LATENESS_P50_US: f64 = 1_000.0;
const MAX_LATENESS_P99_US: f64 = 50_000.0;
/// A paced workload must deliver its offered rate within this share.
const RATE_TOLERANCE: f64 = 0.02;
/// Ledger and per-hop reconciliation tolerance (ROADMAP item 1).
const LEDGER_TOLERANCE_PCT: f64 = 15.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
const E2E: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("delivered_rps", "records/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("notice_p50_ns", "ns"),
    ("notice_p95_ns", "ns"),
    ("cpu_us_per_rec", "us"),
    ("peak_rss_mb", "MiB"),
    ("store_bytes_per_rec", "bytes"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
];

/// One measured run, reduced to its report.
struct Measured {
    run: RunResult,
    e2e: Vec<f64>,
    queries: QueryStats,
    store_bytes_per_rec: f64,
    lost_ratio: f64,
    inversion_ratio: f64,
    problems: Vec<String>,
}

fn measure(a: &Args, traced: bool, work: &Path) -> brisk::core::Result<Measured> {
    let label = if traced { "traced" } else { "untraced" };
    // Without a live reader, the query mix runs over a fresh history
    // before the pipeline starts, so no writeback of the run's own store
    // competes with it.
    let (history, probe) = match a.workload {
        Workload::QueryLive => {
            let dir = work.join(format!("history-{label}"));
            let span = query::build_history(&dir, a.seed)?;
            (Some((dir, span)), None)
        }
        _ => {
            let dir = work.join(format!("probe-{label}"));
            let q = query::idle_probe(&dir, a.seed, PROBE_QUERIES)?;
            let _ = std::fs::remove_dir_all(&dir);
            (None, Some(q))
        }
    };
    let run = pipeline::run(
        a.workload,
        a.seed,
        a.seconds,
        traced,
        work,
        history.as_ref(),
        SETUPS,
    )?;
    let sink = &run.stopped.sink;
    let gen = &run.gen;
    let store_bytes_per_rec = match (&run.store_dir, history.is_some()) {
        (Some(dir), true) => {
            util::dir_bytes(dir) as f64 / (query::HISTORY_RECORDS + run.snap_store.records) as f64
        }
        (Some(dir), false) => util::dir_bytes(dir) as f64 / run.snap_store.records.max(1) as f64,
        (None, _) => query::plain_bytes_per_rec(&sink.kept, &work.join(format!("plain-{label}")))?,
    };
    let queries = run
        .queries
        .clone()
        .or(probe)
        .expect("every workload measures queries");
    let delivered = sink.arrivals.iter().sum::<u64>() as f64;
    let offered: u64 = gen.offered.iter().sum();
    let v = &run.verdict;
    let e2e = vec![
        median(&run.setup_s),
        delivered / a.seconds,
        sink.latency_ns.median_of(0.5) / 1e3,
        sink.latency_ns.median_of(0.99) / 1e3,
        gen.notice_ns.median_of(0.5),
        gen.notice_ns.median_of(0.95),
        run.cpu_us_per_rec(),
        util::peak_rss_mb(),
        store_bytes_per_rec,
        queries.blocks.median_of(0.5) / 1e6,
        queries.blocks.median_of(0.9) / 1e6,
    ];
    let mut problems = Vec::new();
    if !v.ok() {
        problems.push(format!("output check failed: {}", v.problems()));
    }
    if let Some(rate) = a.workload.rate() {
        let p50 = gen.lateness_ns.quantile(0.5) / 1e3;
        let p99 = gen.lateness_ns.quantile(0.99) / 1e3;
        if p50 > MAX_LATENESS_P50_US || p99 > MAX_LATENESS_P99_US {
            problems.push(format!(
                "INVALID: generator fell behind (lateness p50 {p50:.0} us, p99 {p99:.0} us; \
                 limits {MAX_LATENESS_P50_US} and {MAX_LATENESS_P99_US} us)"
            ));
        }
        if (e2e[1] - rate).abs() / rate > RATE_TOLERANCE {
            problems.push(format!(
                "delivered {:.0} records/s, offered {rate:.0}: the pipeline did not keep up",
                e2e[1]
            ));
        }
    }
    Ok(Measured {
        lost_ratio: (offered.saturating_sub(v.delivered_once) + v.duplicates) as f64
            / offered.max(1) as f64,
        inversion_ratio: v.inversions as f64 / v.delivered_once.max(1) as f64,
        e2e,
        queries,
        store_bytes_per_rec,
        problems,
        run,
    })
}

fn print_run(out: &mut String, label: &str, m: &Measured, seed: u64) {
    let gen = &m.run.gen;
    let _ = writeln!(out, "-- {label} run (seed {seed})");
    for ((name, unit), v) in E2E.iter().zip(&m.e2e) {
        let _ = writeln!(out, "   {name:<22} {v:>14.4} {unit}");
    }
    // Printed beside the bounded metrics but not in them: both ratios are
    // 0 on a healthy run, and both p99s sit where too few samples or a
    // bimodal tail make them swing from run to run.
    let _ = writeln!(out, "   {:<22} {:>14.6} ratio", "lost_ratio", m.lost_ratio);
    let _ = writeln!(
        out,
        "   {:<22} {:>14.6} ratio",
        "inversion_ratio", m.inversion_ratio
    );
    let _ = writeln!(
        out,
        "   {:<22} {:>14.4} ns",
        "notice_p99_ns",
        gen.notice_ns.median_of(0.99)
    );
    let _ = writeln!(
        out,
        "   {:<22} {:>14.4} ms",
        "query_p99_ms",
        m.queries.blocks.merged().quantile(0.99) / 1e6
    );
    let _ = writeln!(
        out,
        "   samples: {} latencies, {} notices, {} queries; generator lateness p50 {:.1} us \
         p99 {:.1} us; setups {:?} s; host steal {:.2}%",
        m.run.stopped.sink.latency_ns.merged().count(),
        gen.notice_ns.merged().count(),
        m.queries.blocks.merged().count(),
        gen.lateness_ns.quantile(0.5) / 1e3,
        gen.lateness_ns.quantile(0.99) / 1e3,
        m.run
            .setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        m.run.steal_pct,
    );
    let v = &m.run.verdict;
    let _ = writeln!(
        out,
        "   check: offered {} delivered-once {} refused {} drops {} | {}",
        gen.offered.iter().sum::<u64>(),
        v.delivered_once,
        gen.refused,
        m.run.drops,
        v.problems()
    );
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn per_layer(
    t: &Measured,
    base: &Measured,
    ledger: &replay::Ledger,
    seconds: f64,
) -> Vec<(String, f64, &'static str)> {
    let r = &t.run;
    let gen = &r.gen;
    let sum = |f: fn(&brisk::ism::IsmReport) -> u64| -> f64 {
        r.stopped.reports.iter().map(|(_, rep)| f(rep)).sum::<u64>() as f64
    };
    let exs_sent: u64 = r.exs_window.iter().map(|s| s.records_sent).sum();
    let exs_busy: u64 = r.exs_window.iter().map(|s| s.busy_nanos).sum();
    let exs_batches: u64 = r.exs_window.iter().map(|s| s.batches_sent).sum();
    let relay = r
        .stopped
        .reports
        .iter()
        .find_map(|(_, rep)| rep.relay)
        .unwrap_or_default();
    let ld = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let up = &r.net_up;
    let down = &r.net_down;
    let forwarded: u64 =
        r.stopped.exs.iter().map(|s| s.records_sent).sum::<u64>() + relay.records_exported;
    let q = &t.queries;
    let sink = &r.stopped.sink;
    let hop = |i: usize, q: f64| sink.hops_us[i].quantile(q);
    let lat_p50 = t.e2e[2];
    let hop_sum: f64 = (0..HOPS.len()).map(|i| hop(i, 0.5)).sum();
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("lis.notice_ns".into(), gen.notice_ns.median_of(0.5), "ns"),
        (
            "lis.notice_p99_ns".into(),
            gen.notice_ns.median_of(0.99),
            "ns",
        ),
        ("ringbuf.refusals".into(), gen.refused as f64, "count"),
        (
            "lis.exs_step_ns_per_rec".into(),
            div(exs_busy as f64, exs_sent as f64),
            "ns",
        ),
        (
            "lis.exs_idle_ratio".into(),
            1.0 - div(
                exs_busy as f64 / 1e9,
                r.exs_window_wall_s * r.exs_window.len() as f64,
            ),
            "ratio",
        ),
        (
            "lis.records_per_batch".into(),
            div(exs_sent as f64, exs_batches as f64),
            "count",
        ),
        (
            "lis.credit_stalls".into(),
            r.exs_window.iter().map(|s| s.credit_deferrals).sum::<u64>() as f64,
            "count",
        ),
        (
            "proto.encode_ns_per_rec".into(),
            ledger.row("proto.encode"),
            "ns",
        ),
        (
            "proto.parse_ns_per_rec".into(),
            ledger.row("proto.parse"),
            "ns",
        ),
        (
            "proto.materialize_ns_per_rec".into(),
            ledger.row("proto.materialize"),
            "ns",
        ),
        (
            "proto.wire_bytes_per_rec".into(),
            div(ld(&up.send_bytes), forwarded as f64),
            "bytes",
        ),
        (
            "net.send_ns_per_frame".into(),
            div(ld(&up.send_ns), ld(&up.send_frames)),
            "ns",
        ),
        (
            "net.recv_ns_per_frame".into(),
            div(ld(&down.recv_ns), ld(&down.recv_frames)),
            "ns",
        ),
        (
            "net.frames_per_s".into(),
            ld(&up.send_frames) / (seconds + WARMUP.as_secs_f64()),
            "1/s",
        ),
        (
            "ism.push_batch_ns_per_rec".into(),
            ledger.row("ism.push_batch"),
            "ns",
        ),
        ("ism.tick_ns_per_rec".into(), ledger.row("ism.tick"), "ns"),
        (
            "ism.memory_sink_ns_per_rec".into(),
            ledger.row("ism.memory_sink"),
            "ns",
        ),
        ("ism.frame_us".into(), r.frame_us as f64, "us"),
        (
            "ism.buffered_records_max".into(),
            r.buffered_max as f64,
            "count",
        ),
        (
            "ism.forced_releases".into(),
            sum(|x| x.sorter.forced_releases),
            "count",
        ),
        (
            "ism.sorter_inversions".into(),
            sum(|x| x.sorter.inversions),
            "count",
        ),
        ("ism.cre_held".into(), sum(|x| x.cre.held), "count"),
        (
            "ism.cre_tachyons_repaired".into(),
            sum(|x| x.cre.tachyons_repaired),
            "count",
        ),
        ("ism.cre_timeouts".into(), sum(|x| x.cre.expired), "count"),
        (
            "ism.extra_sync_requests".into(),
            sum(|x| x.cre.extra_syncs_requested),
            "count",
        ),
        (
            "ism.dup_batches_dropped".into(),
            sum(|x| x.core.duplicate_batches),
            "count",
        ),
        (
            "relay.export_ns_per_rec".into(),
            ledger.row("relay.tick_export"),
            "ns",
        ),
        (
            "relay.records_per_batch".into(),
            div(relay.records_exported as f64, relay.batches_exported as f64),
            "count",
        ),
        (
            "relay.retransmits".into(),
            relay.batches_retransmitted as f64,
            "count",
        ),
        ("relay.ack_latency_us_p50".into(), r.relay_ack_p50_us, "us"),
        ("clock.sync_rounds".into(), sum(|x| x.sync_rounds), "count"),
        ("clock.correction_us_max".into(), r.correction_us_max, "us"),
        (
            "clock.hlc_stamp_ns".into(),
            ledger.row("clock.hlc_stamp"),
            "ns",
        ),
        (
            "store.append_ns_per_rec".into(),
            ledger.row("store.append"),
            "ns",
        ),
        (
            "store.sync_ms".into(),
            r.snap_store.fsync_mean_us / 1e3,
            "ms",
        ),
        ("store.bytes_per_rec".into(), t.store_bytes_per_rec, "bytes"),
        (
            "store.segments_sealed".into(),
            r.snap_store.segments_created as f64,
            "count",
        ),
        ("store.open_ms".into(), median(&r.store_open_ms), "ms"),
        (
            "store.idx_rebuilds".into(),
            r.snap_store.idx_rebuilds as f64,
            "count",
        ),
    ];
    for (i, kind) in KINDS.iter().enumerate() {
        let name = match *kind {
            "select_narrow" => "store.select_narrow_ms",
            "select_wide" => "store.select_wide_ms",
            "window_agg" => "store.window_agg_ms",
            _ => "store.chain_ms",
        };
        m.push((name.into(), q.kind_ns[i].quantile(0.5) / 1e6, "ms"));
    }
    m.extend([
        (
            "store.segments_scanned_ratio".into(),
            div(q.segments_scanned as f64, q.segments_total as f64),
            "ratio",
        ),
        (
            "store.match_ratio".into(),
            div(q.records_matched as f64, q.records_scanned_est),
            "ratio",
        ),
        (
            "store.evicted_under_scan".into(),
            q.evicted_under_scan as f64,
            "count",
        ),
        (
            "store.query_p99_ms".into(),
            q.blocks.merged().quantile(0.99) / 1e6,
            "ms",
        ),
    ]);
    for (i, h) in HOPS.iter().enumerate() {
        m.push((format!("{h}_us_p50"), hop(i, 0.5), "us"));
        m.push((format!("{h}_us_p99"), hop(i, 0.99), "us"));
    }
    m.extend([
        (
            "waits.sum_gap_pct".into(),
            100.0 * div(lat_p50 - hop_sum, lat_p50),
            "%",
        ),
        ("e2e.lost_ratio".into(), t.lost_ratio, "ratio"),
        ("e2e.inversion_ratio".into(), t.inversion_ratio, "ratio"),
        (
            "gen.lateness_us_p50".into(),
            gen.lateness_ns.quantile(0.5) / 1e3,
            "us",
        ),
        (
            "gen.lateness_us_p99".into(),
            gen.lateness_ns.quantile(0.99) / 1e3,
            "us",
        ),
        (
            "sink.on_record_ns".into(),
            div(
                sink.on_record_ns as f64,
                (r.verdict.delivered_once + r.verdict.duplicates) as f64,
            ),
            "ns",
        ),
        ("host.steal_pct".into(), r.steal_pct, "%"),
        (
            "ledger.total_ns_per_rec".into(),
            ledger.total_ns_per_rec,
            "ns",
        ),
        (
            "ledger.layers_ns_per_rec".into(),
            ledger.sum(replay::Kind::Layer),
            "ns",
        ),
        (
            "ledger.plumbing_ns_per_rec".into(),
            ledger.sum(replay::Kind::Glue),
            "ns",
        ),
        ("ledger.gap_pct".into(), ledger.gap_pct(), "%"),
    ]);
    for ((name, _), (tv, bv)) in E2E.iter().zip(t.e2e.iter().zip(&base.e2e)) {
        m.push((
            format!("overhead.{name}_pct"),
            100.0 * div(tv - bv, *bv),
            "%",
        ));
    }
    m
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push('}');
    s
}

fn run(a: &Args, work: &Path) -> brisk::core::Result<bool> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench workload={} seed={} seconds={} trace={} | host: {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        util::host_stamp()
    );
    print!("{out}");
    out.clear();
    let base = measure(a, false, work)?;
    print_run(&mut out, "untraced", &base, a.seed);
    let mut problems = base.problems.clone();
    let metrics: Vec<(String, f64, &str)> = if a.trace {
        let traced = measure(a, true, work)?;
        print_run(&mut out, "traced", &traced, a.seed);
        problems.extend(traced.problems.iter().map(|p| format!("traced: {p}")));
        let ledger = replay::ledger(a.workload, a.seed, &work.join("replay"))?;
        let _ = writeln!(
            out,
            "-- ledger: single-threaded stepped replay, {} records, median of passes",
            replay::RECORDS
        );
        for row in &ledger.rows {
            let note = match row.kind {
                replay::Kind::Layer => "",
                replay::Kind::Inside => "  (inside another row; not summed)",
                replay::Kind::Glue => "  (replay plumbing)",
            };
            let _ = writeln!(
                out,
                "   {:<22} {:>10.1} ns/rec{note}",
                row.name, row.ns_per_rec
            );
        }
        let gap = ledger.gap_pct();
        let _ =
            writeln!(
            out,
            "   layers {:.1} + plumbing {:.1} ns/rec vs single-threaded end-to-end {:.1} ns/rec: \
             gap {gap:+.1}%{}",
            ledger.sum(replay::Kind::Layer),
            ledger.sum(replay::Kind::Glue),
            ledger.total_ns_per_rec,
            if gap.abs() > LEDGER_TOLERANCE_PCT { " UNACCOUNTED" } else { "" }
        );
        let _ = writeln!(
            out,
            "   multi-threaded cpu_us_per_rec (untraced) {:.3} us = {:.1} ns/rec",
            base.e2e[6],
            base.e2e[6] * 1e3
        );
        let sink = &traced.run.stopped.sink;
        let _ = writeln!(
            out,
            "-- per-hop waits of {} traced records (1 in 64), us",
            sink.traced_records
        );
        let mut hop_sum = 0.0;
        for (i, h) in HOPS.iter().enumerate() {
            let (p50, p99) = (
                sink.hops_us[i].quantile(0.5),
                sink.hops_us[i].quantile(0.99),
            );
            hop_sum += p50;
            let _ = writeln!(out, "   {h:<22} p50 {p50:>10.1}  p99 {p99:>10.1}");
        }
        let lat = traced.e2e[2];
        let hop_gap = 100.0 * (lat - hop_sum) / lat;
        let _ = writeln!(
            out,
            "   sum of hop p50s {hop_sum:.1} us vs latency_p50_us {lat:.1} us: gap {hop_gap:+.1}%{}",
            if hop_gap.abs() > LEDGER_TOLERANCE_PCT { " UNACCOUNTED" } else { "" }
        );
        let _ = writeln!(out, "-- tracing overhead (traced − untraced)");
        for ((name, unit), (tv, bv)) in E2E.iter().zip(traced.e2e.iter().zip(&base.e2e)) {
            let _ = writeln!(
                out,
                "   {name:<22} {:>+14.4} {unit} ({:+.1}%)",
                tv - bv,
                100.0 * (tv - bv) / bv
            );
        }
        let m = per_layer(&traced, &base, &ledger, a.seconds);
        let _ = writeln!(out, "-- per-layer metrics");
        for (name, v, unit) in &m {
            let _ = writeln!(out, "   {name:<30} {v:>14.4} {unit}");
        }
        m
    } else {
        E2E.iter()
            .zip(&base.e2e)
            .map(|((n, u), v)| (n.to_string(), *v, *u))
            .collect()
    };
    let ok = problems.is_empty();
    for p in &problems {
        let _ = writeln!(out, "!! {p}");
    }
    let gen = &base.run.gen;
    let offered: u64 = gen.offered.iter().sum();
    let v = &base.run.verdict;
    let failed = offered.saturating_sub(v.delivered_once) + v.duplicates;
    print!("{out}");
    println!(
        "{{\"correct\": {ok}, \"attempted\": {offered}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(ok)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let work: PathBuf = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let result = std::fs::create_dir_all(&work)
        .map_err(brisk::core::BriskError::Io)
        .and_then(|_| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
