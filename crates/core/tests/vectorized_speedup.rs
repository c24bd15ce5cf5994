//! The vectorized regression guard, through the row-oracle hook (see
//! `onesql_core::query`): three workloads, each fed once per row through
//! `RunningQuery::change` and once as pre-built `ChangeBatch`es (what a
//! columnar source hands the driver) through `RunningQuery::change_batch`.
//! Both paths must give changelogs of equal length, and on the cheap
//! filter the columnar path must run at least 3x as fast (best of 5, back
//! to back). A timing guard, so ignored in debug builds:
//! `cargo test -q -p onesql-core --release --test vectorized_speedup`.

use std::time::{Duration, Instant};

use onesql_core::{Engine, StreamBuilder};
use onesql_tvr::{Change, ChangeBatch};
use onesql_types::{DataType, Row, Ts, Value};

const N: usize = 50_000;
/// Rows per columnar batch on the vectorized side.
const BATCH: usize = 1_024;
/// Watermark cadence for the windowed workload (rows between watermarks):
/// a whole number of batches, so both paths see the same watermarks.
const WM_EVERY: usize = 10 * BATCH;

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

fn bid_engine() -> Engine {
    let mut engine = Engine::new();
    engine.register_stream(
        "Bid",
        StreamBuilder::new()
            .event_time_column("ts")
            .column("price", DataType::Int)
            .column("bidder", DataType::Int)
            .column("item", DataType::String),
    );
    engine
}

/// Event time of row `i`: monotone, ~16 ten-minute windows over the run.
fn event_time(i: usize) -> Ts {
    Ts(i as i64 * 200)
}

/// The input, as [`ChangeBatch::from_changes`] takes it.
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

/// Feed every row through the per-row path; the changelog's length.
fn run_rows(sql: &str, rows: &[(Ts, Change)], wm_every: Option<usize>) -> usize {
    let mut q = bid_engine().execute(sql).unwrap();
    for (i, (ptime, change)) in rows.iter().enumerate() {
        q.change("Bid", *ptime, change.clone()).unwrap();
        if wm_every.is_some_and(|e| (i + 1) % e == 0) {
            q.watermark("Bid", *ptime, event_time(i)).unwrap();
        }
    }
    q.changelog_len()
}

/// The batches a columnar source delivers, `BATCH` rows each.
fn bid_batches(rows: &[(Ts, Change)]) -> Vec<ChangeBatch> {
    let batch = |rows| ChangeBatch::from_changes(rows).unwrap();
    rows.chunks(BATCH).map(batch).collect()
}

/// Feed the batches through the columnar path, watermarking at the same
/// boundaries as [`run_rows`]; the changelog's length.
fn run_columns(sql: &str, batches: &[ChangeBatch], wm_every: Option<usize>) -> usize {
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

/// Best-of-`rounds` wall clock: the noise-robust statistic for an A/B in
/// one process on a shared host.
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

#[test]
#[cfg_attr(debug_assertions, ignore = "a timing guard: run it with --release")]
fn columns_hold_3x_rows_on_a_cheap_filter_with_equal_changelogs() {
    let rows = bid_rows();
    for (name, sql, wm) in [
        ("cheap_filter", CHEAP_FILTER, None),
        ("projection", PROJECTION, None),
        ("q7_window", Q7_WINDOW, Some(WM_EVERY)),
    ] {
        assert_eq!(
            run_columns(sql, &bid_batches(&rows), wm),
            run_rows(sql, &rows, wm),
            "the columnar changelog diverges on {name}"
        );
    }

    let batches = bid_batches(&rows);
    let expected = run_rows(CHEAP_FILTER, &rows, None);
    let by_rows = min_time(5, expected, || run_rows(CHEAP_FILTER, &rows, None));
    let by_columns = min_time(5, expected, || run_columns(CHEAP_FILTER, &batches, None));
    println!(
        "vectorized speedup [cheap_filter]: rows {by_rows:?}, columns {by_columns:?} ({:.2}x)",
        by_rows.as_secs_f64() / by_columns.as_secs_f64()
    );
    assert!(
        by_columns * 3 <= by_rows,
        "the columnar path fell below 3x the per-row path on cheap_filter: \
         rows {by_rows:?} vs columns {by_columns:?}"
    );
}
