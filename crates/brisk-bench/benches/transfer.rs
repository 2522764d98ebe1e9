//! E3 micro-benchmarks: the transfer protocol's encode/decode cost per
//! batch size, which bounds the achievable EXS→ISM event throughput.
//!
//! Paper reference: "the maximum throughput achieved between an EXS and
//! ISM was 90,000 events per second" with 40-byte XDR records (§4).

use brisk_bench::rig::six_i32_fields;
use brisk_core::{EventRecord, EventTypeId, NodeId, SensorId, UtcMicros};
use brisk_proto::Message;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn batch(n: usize) -> Message {
    Message::EventBatch {
        node: NodeId(1),
        seq: 1,
        records: (0..n as u64)
            .map(|i| {
                EventRecord::new(
                    NodeId(1),
                    SensorId(0),
                    EventTypeId(1),
                    i,
                    UtcMicros::from_micros(i as i64),
                    six_i32_fields(i),
                )
                .unwrap()
            })
            .collect(),
    }
}

fn bench_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("transfer_protocol");
    for n in [16usize, 64, 256, 1024] {
        let msg = batch(n);
        let encoded = msg.encode();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("encode", n), &msg, |b, msg| {
            b.iter(|| black_box(msg.encode()));
        });
        group.bench_with_input(BenchmarkId::new("decode", n), &encoded, |b, bytes| {
            b.iter(|| black_box(Message::decode(bytes).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("round_trip", n), &msg, |b, msg| {
            b.iter(|| {
                let bytes = msg.encode();
                black_box(Message::decode(&bytes).unwrap())
            });
        });
    }
    group.finish();

    // Native encoding (ring-buffer / memory-buffer path) for comparison.
    let mut group = c.benchmark_group("native_encoding");
    let rec = EventRecord::new(
        NodeId(1),
        SensorId(0),
        EventTypeId(1),
        7,
        UtcMicros::from_micros(7),
        six_i32_fields(7),
    )
    .unwrap();
    group.throughput(Throughput::Elements(1));
    group.bench_function("encode_six_i32", |b| {
        let mut buf = Vec::with_capacity(128);
        b.iter(|| {
            buf.clear();
            brisk_core::binenc::encode_record(black_box(&rec), &mut buf);
            black_box(buf.len())
        });
    });
    let mut buf = Vec::new();
    brisk_core::binenc::encode_record(&rec, &mut buf);
    group.bench_function("decode_six_i32", |b| {
        b.iter(|| black_box(brisk_core::binenc::decode_record(&buf).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_transfer);
criterion_main!(benches);
