//! B11 — flight-recorder overhead on the ingest path.
//!
//! The B8/B10 ingest workloads, run three ways: **bare** (`EXPLAIN
//! ANALYZE`: no label, no sink — spans are inert), **trace-off** (an
//! `INSERT` pipeline, labelled by its discarding sink, tracing still
//! uninstalled: every span site pays exactly one relaxed atomic load),
//! and **trace-on** (the [`FlightRecorder`] installed at full sampling,
//! every driver span recorded). The contract this bench
//! enforces: trace-off costs **at most ~1%** over bare, trace-on **at
//! most ~5%**. Results are recorded in `BENCH_trace.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

mod common;

use onesql_core::observe::{self, FlightRecorder};
use onesql_core::StreamBuilder;
use onesql_types::{row, DataType, Ts};

use common::FilledChannel;

const N: usize = 20_000;
const SQL: &str = "SELECT item, price FROM Bid WHERE price > 10";
const LABEL: &str = "bench_trace";

fn run_channel(labelled: bool) -> (u64, u64) {
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
        labelled.then_some(LABEL),
    )
}

fn run_nexmark(labelled: bool) -> (u64, u64) {
    let ddl = format!("CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = {N});");
    let sql = "SELECT auction, price FROM Bid WHERE price > 100";
    common::run(
        &mut common::session(None),
        &ddl,
        sql,
        labelled.then_some(LABEL),
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

fn bench_trace(c: &mut Criterion) {
    // A private ring so the bench never pollutes the process recorder
    // that `SHOW TRACE` reads.
    let ring = Arc::new(FlightRecorder::new(1 << 16));

    let mut group = c.benchmark_group("trace");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("channel_bare", |b| {
        b.iter(|| assert_eq!(run_channel(false).0, N as u64))
    });
    group.bench_function("channel_trace_off", |b| {
        b.iter(|| assert_eq!(run_channel(true).0, N as u64))
    });
    observe::set_sample(1);
    observe::install(ring.clone());
    group.bench_function("channel_trace_on", |b| {
        b.iter(|| assert_eq!(run_channel(true).0, N as u64))
    });
    observe::uninstall();
    group.finish();

    // The enforced contract, measured back-to-back so machine noise hits
    // all sides equally: trace-off within 1% of bare, trace-on within 5%
    // (each plus a 500us absolute floor so micro-jitter cannot fail a
    // sub-ms run).
    for (name, f) in [
        ("channel", run_channel as fn(bool) -> (u64, u64)),
        ("nexmark", run_nexmark as fn(bool) -> (u64, u64)),
    ] {
        // Like for like: every side polls the same batches.
        let rounds = f(false).1;
        assert_eq!(f(true).1, rounds, "'{name}' rounds differ");
        let bare = min_time(10, || f(false));
        let off = min_time(10, || f(true));
        observe::set_sample(1);
        observe::install(ring.clone());
        let on = min_time(10, || f(true));
        observe::uninstall();
        observe::hub().clear(LABEL);
        assert!(!ring.is_empty(), "trace-on actually recorded spans");
        ring.clear();
        let off_budget = bare + bare / 100 + Duration::from_micros(500);
        let on_budget = bare + bare * 5 / 100 + Duration::from_micros(500);
        println!(
            "trace overhead [{name}]: {rounds} rounds, bare {bare:?}, off {off:?} \
             (budget {off_budget:?}), on {on:?} (budget {on_budget:?})"
        );
        assert!(
            off <= off_budget,
            "disabled tracing on '{name}' exceeds 1% over bare: {bare:?} vs {off:?}"
        );
        assert!(
            on <= on_budget,
            "enabled tracing on '{name}' exceeds 5% over bare: {bare:?} vs {on:?}"
        );
    }
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
