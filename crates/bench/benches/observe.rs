//! B10 — observability overhead on the ingest path.
//!
//! Two connector-runtime workloads (channel replay, NEXMark generator
//! replay), run twice: once bare (no label) and once instrumented (a
//! labelled driver publishing a snapshot to the global
//! [`MetricsHub`](onesql_core::MetricsHub) every scheduling round). The
//! contract this bench enforces: the label costs **at most ~5%** of ingest
//! throughput. Span overhead with tracing on is `trace.rs`'s guard.
//! Results are recorded in `BENCH_observe.json`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use onesql_connect::{channel, NexmarkSource};
use onesql_core::observe;
use onesql_core::{DriverConfig, Engine, PipelineDriver, StreamBuilder};
use onesql_types::{row, DataType, Ts};

const N: usize = 20_000;
const SQL: &str = "SELECT item, price FROM Bid WHERE price > 10";
const LABEL: &str = "bench_observe";

fn bid_engine() -> Engine {
    let mut engine = Engine::new();
    engine.register_stream(
        "Bid",
        StreamBuilder::new()
            .event_time_column("bidtime")
            .column("price", DataType::Int)
            .column("item", DataType::String),
    );
    engine
}

fn run_channel(instrumented: bool) -> u64 {
    let engine = bid_engine();
    let (publisher, source) = channel("Bid", N + 1);
    for i in 0..N as i64 {
        publisher
            .insert(Ts(i), row!(Ts(i), i % 100, "item"))
            .unwrap();
    }
    drop(publisher);
    let mut pipeline = PipelineDriver::new(&engine, SQL, DriverConfig::default()).unwrap();
    pipeline.attach_source(Box::new(source)).unwrap();
    if instrumented {
        pipeline.set_label(LABEL);
    }
    pipeline.run().unwrap().events_in
}

fn run_nexmark(instrumented: bool) -> u64 {
    let mut engine = Engine::new();
    onesql_connect::register_nexmark_streams(&mut engine);
    let sql = "SELECT auction, price FROM Bid WHERE price > 100";
    let mut pipeline = PipelineDriver::new(&engine, sql, DriverConfig::default()).unwrap();
    pipeline
        .attach_source(Box::new(NexmarkSource::seeded(7, N as u64)))
        .unwrap();
    if instrumented {
        pipeline.set_label(LABEL);
    }
    pipeline.run().unwrap().events_in
}

/// Best-of-`rounds` wall clock: minimum is the noise-robust statistic for
/// a same-process A/B comparison on a shared host.
fn min_time(rounds: usize, mut f: impl FnMut() -> u64) -> Duration {
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(f(), N as u64);
            start.elapsed()
        })
        .min()
        .unwrap()
}

fn bench_observe(c: &mut Criterion) {
    let mut group = c.benchmark_group("observe");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("channel_bare", |b| {
        b.iter(|| assert_eq!(run_channel(false), N as u64))
    });
    group.bench_function("nexmark_bare", |b| {
        b.iter(|| assert_eq!(run_nexmark(false), N as u64))
    });

    group.bench_function("channel_instrumented", |b| {
        b.iter(|| assert_eq!(run_channel(true), N as u64))
    });
    group.bench_function("nexmark_instrumented", |b| {
        b.iter(|| assert_eq!(run_nexmark(true), N as u64))
    });
    group.finish();

    // The enforced contract, measured back-to-back so machine noise hits
    // both sides equally: instrumented min-time within 5% of bare (plus a
    // 500us absolute floor so micro-jitter cannot fail a sub-ms run).
    for (name, f) in [
        ("channel", run_channel as fn(bool) -> u64),
        ("nexmark", run_nexmark as fn(bool) -> u64),
    ] {
        let bare = min_time(10, || f(false));
        let instrumented = min_time(10, || f(true));
        observe::hub().clear(LABEL);
        let budget = bare + bare * 5 / 100 + Duration::from_micros(500);
        println!(
            "observe overhead [{name}]: bare {:?}, instrumented {:?} (budget {:?})",
            bare, instrumented, budget
        );
        assert!(
            instrumented <= budget,
            "instrumentation overhead on '{name}' exceeds 5%: \
             bare {bare:?} vs instrumented {instrumented:?}"
        );
    }
}

criterion_group!(benches, bench_observe);
criterion_main!(benches);
