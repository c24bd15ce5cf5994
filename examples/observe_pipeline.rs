//! A pipeline observing a pipeline, both in **pure SQL**: NEXMark Q7
//! runs under the label `q7_out`, and a second pipeline reads the
//! engine's own telemetry through the `metrics` source connector,
//! windowing Q7's watermark lag with the *same* `Tumble` the data
//! queries use. The monitoring query is just another query — the
//! paper's "one SQL dialect" thesis applied to operations.
//!
//! Run with: `cargo run --release --example observe_pipeline`

use std::sync::{Arc, Mutex};

use onesql::connect::session;
use onesql::StatementResult;
use onesql_nexmark::queries;
use onesql_types::Result;

const EVENTS: u64 = 4_000;

fn main() -> Result<()> {
    // One script, two pipelines. The `metrics` connector declares the
    // stream `sys_metrics (mtime, pipeline, metric, kind, value)`;
    // every scheduling round of the watched pipeline becomes rows, so
    // the observer can window them like any other stream.
    // One worker drains all four source partitions.
    let script = format!(
        "SET workers = 1;
         SET batch_size = 64;
         SET max_batch = 128;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = {EVENTS}, partitions = 4);
         CREATE SINK q7_out WITH (connector = 'changelog');
         INSERT INTO q7_out {q7} EMIT STREAM;

         CREATE SOURCE sys_metrics WITH (connector = 'metrics', pipelines = 'q7_out');
         CREATE SINK lag WITH (connector = 'changelog');
         INSERT INTO lag
           SELECT T.wend, MAX(T.value) AS peak_lag_ms
           FROM Tumble(data => TABLE(sys_metrics), timecol => DESCRIPTOR(mtime),
                       dur => INTERVAL '1' MINUTE) T
           WHERE T.metric = 'watermark_lag_ms'
           GROUP BY T.wend
           EMIT STREAM AFTER WATERMARK;",
        q7 = queries::Q7,
    );

    let mut session = session();
    let mut pipelines = session.execute_script(&script)?.pipelines();
    let mut observer = pipelines.pop().expect("observer pipeline");
    let mut q7 = pipelines.pop().expect("q7 pipeline");
    let lag = session
        .take_handle::<Arc<Mutex<String>>>("lag")
        .expect("changelog sink exports its buffer");

    // Interleave the two pipelines: the observer samples the hub while Q7
    // is mid-flight (a real deployment would run them in two threads or
    // two processes — the `metrics` hub is process-global).
    while q7.events_in() < EVENTS {
        q7.step()?;
        observer.step()?;
    }
    let q7_metrics = q7.run()?; // final snapshot carries finished = true
    let observer_metrics = observer.run()?; // ...which finishes the metric stream

    println!("== Q7 watermark lag, per 1-minute window (event time) ==");
    let rendered = lag.lock().unwrap();
    for line in rendered
        .lines()
        .rev()
        .take(8)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("{line}");
    }
    drop(rendered);

    // The same numbers, asked for in SQL.
    session.adopt_pipeline(q7)?;
    session.adopt_pipeline(observer)?;
    let StatementResult::Pipelines(infos) = session.execute("SHOW PIPELINES")? else {
        panic!("expected Pipelines");
    };
    println!("== SHOW PIPELINES ==");
    for info in &infos {
        let value = |name: &str| {
            info.rows
                .iter()
                .find(|r| r.name == name)
                .map_or(0, |r| r.value)
        };
        println!(
            "{:8} workers={} events_in={:6} events_out={:6} rounds={:4} p99_round={}us",
            info.name,
            info.workers,
            value("events_in"),
            value("events_out"),
            value("rounds"),
            value("round_micros_p99"),
        );
    }

    assert_eq!(q7_metrics.events_in, EVENTS);
    assert!(q7_metrics.events_out > 0, "Q7 produced no output");
    assert!(
        observer_metrics.events_in > 0,
        "the observer saw no telemetry rows"
    );
    assert!(
        lag.lock().unwrap().lines().count() > 0,
        "no lag windows rendered"
    );
    assert_eq!(infos.len(), 2);
    println!(
        "== done: {} telemetry rows observed over {} Q7 rounds ==",
        observer_metrics.events_in, q7_metrics.rounds
    );
    Ok(())
}
