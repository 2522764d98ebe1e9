//! Pins the telemetry surface of both upstream senders: a supervised EXS
//! and a relay's upstream exporter, bound to one registry, must export
//! exactly these series — every name, label set and metric kind. Renaming
//! or dropping one breaks dashboards and alerts that scrape it.

use brisk::ism::{RelayConfig, UpstreamExporter};
use brisk::lis::supervisor::{spawn_exs_supervised, SupervisorConfig};
use brisk::prelude::*;
use brisk::telemetry::SampleValue;
use std::collections::BTreeSet;
use std::sync::Arc;

type Series = (String, &'static str, Vec<(String, String)>);

fn series(name: &str, kind: &'static str, labels: &[(&str, &str)]) -> Series {
    let labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    (name.to_string(), kind, labels)
}

#[test]
fn supervised_exs_and_relay_exporter_keep_their_metric_names() {
    let registry = Registry::new();
    let transport = MemTransport::new();
    let (t1, t2) = (Arc::clone(&transport), Arc::clone(&transport));
    let rings = RingSet::new(NodeId(5), 1 << 10);
    let exs = spawn_exs_supervised(
        NodeId(5),
        rings,
        Arc::new(SystemClock),
        Box::new(move || t1.connect("nobody")),
        ExsConfig::default(),
        SupervisorConfig::default(),
    )
    .unwrap();
    exs.bind_telemetry(&registry);
    let exporter = UpstreamExporter::new(
        RelayConfig::new(NodePrefix::new(9).unwrap()),
        Box::new(move || t2.connect("nobody")),
    );
    exporter.bind_telemetry(&registry);

    let got: BTreeSet<Series> = registry
        .snapshot()
        .samples
        .into_iter()
        .map(|s| {
            let kind = match s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            (s.name, kind, s.labels)
        })
        .collect();

    let node = [("node", "5")];
    let prefix = [("prefix", "9")];
    let mut want = BTreeSet::new();
    for name in [
        "brisk_exs_records_drained_total",
        "brisk_exs_records_sent_total",
        "brisk_exs_batches_sent_total",
        "brisk_exs_sync_replies_total",
        "brisk_exs_adjustments_total",
        "brisk_exs_sync_ignored_total",
        "brisk_exs_acks_total",
        "brisk_exs_batches_retransmitted_total",
        "brisk_exs_window_evicted_total",
        "brisk_exs_credit_deferred_total",
        "brisk_exs_heartbeats_sent_total",
        "brisk_exs_hello_acks_total",
        "brisk_exs_decode_errors_total",
        "brisk_exs_hlc_full_skips_total",
        "brisk_exs_busy_nanos_total",
        "brisk_exs_iterations_total",
        "brisk_exs_connects_total",
        "brisk_exs_reconnects_total",
    ] {
        want.insert(series(name, "counter", &node));
    }
    for reason in ["records", "bytes", "timeout", "forced"] {
        want.insert(series(
            "brisk_exs_flush_total",
            "counter",
            &[("node", "5"), ("reason", reason)],
        ));
    }
    for name in [
        "brisk_exs_drain_us",
        "brisk_exs_batch_records",
        "brisk_exs_ack_lag_batches",
    ] {
        want.insert(series(name, "histogram", &node));
    }
    for name in [
        "brisk_exs_retransmit_window_depth",
        "brisk_exs_credit_balance",
    ] {
        want.insert(series(name, "gauge", &node));
    }
    for name in [
        "brisk_relay_connects_total",
        "brisk_relay_hello_acks_total",
        "brisk_relay_exported_batches_total",
        "brisk_relay_exported_records_total",
        "brisk_relay_retransmitted_batches_total",
        "brisk_relay_acks_total",
        "brisk_relay_heartbeats_total",
        "brisk_relay_window_evicted_total",
        "brisk_relay_rewrite_errors_total",
        "brisk_relay_decode_errors_total",
        "brisk_relay_adjustments_total",
        "brisk_relay_credit_stalls_total",
    ] {
        want.insert(series(name, "counter", &prefix));
    }
    for name in [
        "brisk_relay_upstream_connected",
        "brisk_relay_window_depth",
        "brisk_relay_upstream_credit",
    ] {
        want.insert(series(name, "gauge", &prefix));
    }
    want.insert(series("brisk_relay_ack_latency_us", "histogram", &prefix));

    assert_eq!(want.len(), 25 + 2 + 16);
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "missing {missing:?}, unexpected {extra:?}"
    );
    exs.stop().unwrap();
}
