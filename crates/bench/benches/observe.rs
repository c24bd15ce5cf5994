//! B10 — observability overhead on the ingest path.
//!
//! Two connector-runtime workloads (a filled channel, NEXMark generator
//! replay), run twice: once bare (`EXPLAIN ANALYZE`: no sink, no label)
//! and once instrumented (an `INSERT` pipeline into a discarding sink,
//! labelled by it and publishing a snapshot to the global
//! [`MetricsHub`](onesql_core::MetricsHub) every scheduling round). The
//! contract this bench enforces: the label costs **at most ~5%** of ingest
//! throughput. Span overhead with tracing on is `trace.rs`'s guard.
//! Results are recorded in `BENCH_observe.json`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

mod common;

use onesql_core::{observe, StreamBuilder};
use onesql_types::{row, DataType, Ts};

use common::FilledChannel;

const N: usize = 20_000;
const SQL: &str = "SELECT item, price FROM Bid WHERE price > 10";
const LABEL: &str = "bench_observe";

fn run_channel(instrumented: bool) -> (u64, u64) {
    let filled = FilledChannel {
        bid: StreamBuilder::new()
            .event_time_column("bidtime")
            .column("price", DataType::Int)
            .column("item", DataType::String),
        events: N,
        row: |i| row!(Ts(i as i64), i as i64 % 100, "item"),
    };
    let ddl = "CREATE SOURCE feed WITH (connector = 'filled');";
    common::run(
        &mut common::session(Some(filled)),
        ddl,
        SQL,
        instrumented.then_some(LABEL),
    )
}

fn run_nexmark(instrumented: bool) -> (u64, u64) {
    let ddl = format!("CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = {N});");
    let sql = "SELECT auction, price FROM Bid WHERE price > 100";
    common::run(
        &mut common::session(None),
        &ddl,
        sql,
        instrumented.then_some(LABEL),
    )
}

/// Best-of-`rounds` wall clock: minimum is the noise-robust statistic for
/// a same-process A/B comparison on a shared host.
fn min_time(rounds: usize, mut f: impl FnMut() -> (u64, u64)) -> Duration {
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(f().0, N as u64);
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
        b.iter(|| assert_eq!(run_channel(false).0, N as u64))
    });
    group.bench_function("nexmark_bare", |b| {
        b.iter(|| assert_eq!(run_nexmark(false).0, N as u64))
    });

    group.bench_function("channel_instrumented", |b| {
        b.iter(|| assert_eq!(run_channel(true).0, N as u64))
    });
    group.bench_function("nexmark_instrumented", |b| {
        b.iter(|| assert_eq!(run_nexmark(true).0, N as u64))
    });
    group.finish();

    // The enforced contract, measured back-to-back so machine noise hits
    // both sides equally: instrumented min-time within 5% of bare (plus a
    // 500us absolute floor so micro-jitter cannot fail a sub-ms run).
    for (name, f) in [
        ("channel", run_channel as fn(bool) -> (u64, u64)),
        ("nexmark", run_nexmark as fn(bool) -> (u64, u64)),
    ] {
        // Like for like: both sides poll the same batches.
        let rounds = f(false).1;
        assert_eq!(f(true).1, rounds, "'{name}' rounds differ");
        let bare = min_time(10, || f(false));
        let instrumented = min_time(10, || f(true));
        observe::hub().clear(LABEL);
        let budget = bare + bare * 5 / 100 + Duration::from_micros(500);
        println!(
            "observe overhead [{name}]: {rounds} rounds, bare {:?}, instrumented {:?} \
             (budget {:?})",
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
