//! B11 — vectorized columnar executor vs the row-at-a-time oracle.
//!
//! Three workloads, each fed by hand through the row-oracle hook (see
//! `onesql_core::query`): once through `RunningQuery::change` (the scalar
//! path) and once through `RunningQuery::change_batch` (the columnar
//! path). Each side consumes its natural input: the scalar side
//! pre-built rows, the columnar side pre-built `ChangeBatch`es — the
//! shape a columnar source (the CSV `poll_columns` path) hands the
//! driver. A separate end-to-end pipeline A/B on the cheap filter, run
//! as a script, toggles [`DriverConfig::vectorize`] over a *row* source
//! (a channel), so it pays the rows→columns run-grouping cost inside the
//! measurement.
//!
//! The contract this bench enforces: the vectorized path sustains **at
//! least 3x** the scalar throughput on the filter-dominated workload
//! (best-of-5 wall clock; the recorded numbers in `BENCH_vectorized.json`
//! land well above the 5x tentpole target). Outputs are asserted equal on
//! every iteration — speed never buys a different changelog.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

mod common;

use onesql_core::{DriverConfig, Engine, StreamBuilder};
use onesql_tvr::{Change, ChangeBatch};
use onesql_types::{row, DataType, Row, Ts, Value};

use common::FilledChannel;

const N: usize = 50_000;
/// Rows per columnar batch on the vectorized side.
const BATCH: usize = 1_024;
/// Watermark cadence for the windowed workload (rows between watermarks).
const WM_EVERY: usize = 10_240;

/// Filter-dominated: one comparison kernel, two column projections.
const CHEAP_FILTER: &str = "SELECT bidder, price FROM Bid WHERE price > 500";
/// Projection-dominated: an arithmetic expression tree per output column.
const PROJECTION: &str = "SELECT price + bidder, (price * 3) % 97, \
     CASE WHEN price > bidder THEN price - bidder ELSE bidder - price END, \
     price / 10 FROM Bid WHERE bidder >= 0";
/// NEXMark q7 shape: max price per tumbling window, watermark-gated.
const Q7_WINDOW: &str = "SELECT wend, MAX(price) \
     FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(ts), \
     dur => INTERVAL '10' MINUTE) GROUP BY wend EMIT AFTER WATERMARK";

fn bid_stream() -> StreamBuilder {
    StreamBuilder::new()
        .event_time_column("ts")
        .column("price", DataType::Int)
        .column("bidder", DataType::Int)
        .column("item", DataType::String)
}

fn bid_engine() -> Engine {
    let mut engine = Engine::new();
    engine.register_stream("Bid", bid_stream());
    engine
}

/// Event time of row `i`: monotone, ~16 ten-minute windows over the run.
fn event_time(i: usize) -> Ts {
    Ts(i as i64 * 200)
}

/// The shared input: `(ptime, change)` pairs, exactly the shape
/// [`ChangeBatch::from_changes`] consumes.
fn bid_rows() -> Vec<(Ts, Change)> {
    (0..N)
        .map(|i| {
            let row = Row::new(vec![
                Value::Ts(event_time(i)),
                Value::Int((i as i64 * 7_919) % 1_000),
                Value::Int((i as i64 * 104_729) % 500),
                Value::str(["alpha", "beta", "hot", "cold"][i % 4]),
            ]);
            (Ts(i as i64), Change { row, diff: 1 })
        })
        .collect()
}

/// Feed every row through the per-row path.
fn run_scalar(sql: &str, rows: &[(Ts, Change)], wm_every: Option<usize>) -> usize {
    let mut q = bid_engine().execute(sql).unwrap();
    for (i, (ptime, change)) in rows.iter().enumerate() {
        q.change("Bid", *ptime, change.clone()).unwrap();
        if wm_every.is_some_and(|e| (i + 1) % e == 0) {
            q.watermark("Bid", *ptime, event_time(i)).unwrap();
        }
    }
    q.changelog_len()
}

/// Pre-build the columnar batches a columnar source (e.g. the CSV
/// source's `poll_columns`) delivers: cut at `BATCH` rows and at
/// watermark boundaries so both paths observe identical watermarks.
fn bid_batches(rows: &[(Ts, Change)], wm_every: Option<usize>) -> Vec<ChangeBatch> {
    let mut batches = Vec::new();
    let mut i = 0;
    while i < rows.len() {
        let mut end = (i + BATCH).min(rows.len());
        if let Some(e) = wm_every {
            end = end.min((i / e + 1) * e);
        }
        batches.push(ChangeBatch::from_changes(&rows[i..end]).expect("uniform arity"));
        i = end;
    }
    batches
}

/// Feed pre-built columnar batches, watermarking at the same boundaries
/// as the scalar side.
fn run_vectorized(sql: &str, batches: &[ChangeBatch], wm_every: Option<usize>) -> usize {
    let mut q = bid_engine().execute(sql).unwrap();
    let mut fed = 0;
    for batch in batches {
        q.change_batch("Bid", batch).unwrap();
        fed += batch.len();
        if wm_every.is_some_and(|e| fed % e == 0) {
            q.watermark("Bid", Ts(fed as i64 - 1), event_time(fed - 1))
                .unwrap();
        }
    }
    q.changelog_len()
}

/// End-to-end: a channel source through a pipeline, vectorization
/// toggled by config. The driver groups consecutive same-stream events
/// into batches itself, so this measures the full hot path including
/// polling, run-grouping, and output drain.
fn run_driver(vectorize: bool) -> u64 {
    let filled = FilledChannel {
        bid: bid_stream(),
        events: N,
        row: |i| {
            row!(
                event_time(i),
                (i as i64 * 7_919) % 1_000,
                (i as i64 * 104_729) % 500,
                "item"
            )
        },
    };
    let mut session = common::session(Some(filled));
    session.set_driver_config(DriverConfig {
        vectorize,
        ..DriverConfig::default()
    });
    let ddl = "CREATE SOURCE feed WITH (connector = 'filled');";
    common::run(&mut session, ddl, CHEAP_FILTER, Some("out")).0
}

/// Best-of-`rounds` wall clock: minimum is the noise-robust statistic for
/// a same-process A/B comparison on a shared host.
fn min_time(rounds: usize, expected: usize, mut f: impl FnMut() -> usize) -> Duration {
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(f(), expected);
            start.elapsed()
        })
        .min()
        .unwrap()
}

fn bench_vectorized(c: &mut Criterion) {
    let rows = bid_rows();
    let workloads: [(&str, &str, Option<usize>); 3] = [
        ("cheap_filter", CHEAP_FILTER, None),
        ("projection", PROJECTION, None),
        ("q7_window", Q7_WINDOW, Some(WM_EVERY)),
    ];

    let mut group = c.benchmark_group("vectorized");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    for (name, sql, wm) in workloads {
        let batches = bid_batches(&rows, wm);
        let expected = run_scalar(sql, &rows, wm);
        assert_eq!(
            run_vectorized(sql, &batches, wm),
            expected,
            "vectorized changelog diverges on {name}"
        );
        group.bench_function(format!("{name}_scalar"), |b| {
            b.iter(|| assert_eq!(run_scalar(sql, &rows, wm), expected))
        });
        group.bench_function(format!("{name}_vectorized"), |b| {
            b.iter(|| assert_eq!(run_vectorized(sql, &batches, wm), expected))
        });
    }
    for vectorize in [false, true] {
        let label = if vectorize {
            "driver_vectorized"
        } else {
            "driver_scalar"
        };
        group.bench_function(label, |b| {
            b.iter(|| assert_eq!(run_driver(vectorize), N as u64))
        });
    }
    group.finish();

    // The enforced regression guard, measured back-to-back so machine
    // noise hits both sides equally: the columnar path must hold >= 3x
    // scalar throughput on the filter-dominated workload.
    let batches = bid_batches(&rows, None);
    let expected = run_scalar(CHEAP_FILTER, &rows, None);
    let scalar = min_time(5, expected, || run_scalar(CHEAP_FILTER, &rows, None));
    let vectorized = min_time(5, expected, || run_vectorized(CHEAP_FILTER, &batches, None));
    println!(
        "vectorized speedup [cheap_filter]: scalar {:?}, vectorized {:?} ({:.2}x)",
        scalar,
        vectorized,
        scalar.as_secs_f64() / vectorized.as_secs_f64()
    );
    assert!(
        vectorized * 3 <= scalar,
        "vectorized path fell below 3x scalar on cheap_filter: \
         scalar {scalar:?} vs vectorized {vectorized:?}"
    );
}

criterion_group!(benches, bench_vectorized);
criterion_main!(benches);
