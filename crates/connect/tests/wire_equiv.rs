//! What crosses the wire, pinned: the consumer's sink bytes and
//! `events_in` for producers that ship a pipeline's output through a `net`
//! sink, and for publishers that send rows by hand.
//!
//! - NEXMark Q0, Q1, Q5 (its `undo`s cross as retractions) and Q7, at one
//!   and two workers on both sides, run straight through and with the
//!   consumer killed and restored from a checkpoint taken inside a frame
//!   (the producer's frames hold 4 events, the consumer polls 3).
//! - A replay-fed producer whose rows hold NULLs, strings with `,"` and
//!   newlines, NaN, −0.0, ±inf, INTERVALs, BOOLs and TIMESTAMPs.
//! - A publisher feeding two streams of different arities, interleaved,
//!   and one that sends a row of the wrong arity (the consumer's error is
//!   pinned with the bytes written before it).
//!
//! The digests were computed by this same file on the wire's row codec
//! (OSQW version 2); the columnar codec must reproduce every one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration as StdDuration;

use onesql_connect::{
    default_registry, session, AdaptiveBatch, DriverConfig, NetAddr, NetConfig, NetPublisher,
    Session, SqlPipeline,
};
use onesql_core::connect::replay::Replay;
use onesql_nexmark::queries;
use onesql_types::{row, DataType, Duration, Field, Row, Schema, Ts, Value};

/// Events a producer generates.
const EVENTS: u64 = 4_000;
/// The producer's frames, in events: small, so Q7's few rows still fill
/// several.
const FRAME: usize = 4;
/// The consumer's polls, in events: not a divisor of [`FRAME`], so a
/// checkpoint lands inside a frame.
const POLL: usize = 3;

/// The digests, as `(scenario, "fnv64 of the sink bytes/events_in")`.
///
/// Every one is the row codec's but `q5-w1-killed` and `q5-w2-killed`:
/// there the row codec's producer re-cut its frames from the resume
/// offset, so after a restore inside a frame the consumer's polls — and,
/// on Q5, its sink bytes (`d6aaaaa31c379a5a`) — differed from the
/// uninterrupted run's. The columnar spool re-sends the rest of the cut
/// frame and then the frames as they were, and the bytes are the
/// uninterrupted run's.
const PINNED: &[(&str, &str)] = &[
    ("q0-w1", "6d120091b730c043/3680"),
    ("q0-w1-killed", "6d120091b730c043/3680"),
    ("q0-w2", "6d120091b730c043/3680"),
    ("q0-w2-killed", "6d120091b730c043/3680"),
    ("q1-w1", "1480959d73e3e66c/3680"),
    ("q1-w1-killed", "1480959d73e3e66c/3680"),
    ("q1-w2", "1480959d73e3e66c/3680"),
    ("q1-w2-killed", "1480959d73e3e66c/3680"),
    ("q5-w1", "805a36187d25241e/13755"),
    ("q5-w1-killed", "805a36187d25241e/13755"),
    ("q5-w2", "805a36187d25241e/13755"),
    ("q5-w2-killed", "805a36187d25241e/13755"),
    ("q7-w1", "62599b524aea7d74/20"),
    ("q7-w1-killed", "62599b524aea7d74/20"),
    ("q7-w2", "62599b524aea7d74/20"),
    ("q7-w2-killed", "62599b524aea7d74/20"),
    ("values-w1", "e9a17e3d870b9c9e/131"),
    ("values-w2", "2aa62e5fa2d90a0c/131"),
    ("two-streams", "beaef9c7a192cdad/100"),
    (
        "wrong-arity",
        "beaef9c7a192cdad/0 after execution error: row arity 1 does not match schema arity 2",
    ),
];

fn fixed(batch: usize, workers: usize) -> DriverConfig {
    DriverConfig {
        workers,
        batch_size: batch,
        adaptive: AdaptiveBatch {
            min_batch: batch,
            max_batch: batch,
        },
        ..DriverConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("onesql_wire_equiv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}", N.fetch_add(1, Ordering::Relaxed)))
}

/// FNV-1a, 64 bits.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest(sink: &Path, events_in: u64) -> String {
    let bytes = std::fs::read(sink).unwrap_or_default();
    format!("{:016x}/{events_in}", fnv(&bytes))
}

/// Compare every scenario with its pin; on a mismatch, print the lines to
/// pin and fail.
fn check(results: &[(String, String)]) {
    let mut wrong = Vec::new();
    for (name, got) in results {
        let pinned = PINNED.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
        if pinned != Some(got.as_str()) {
            wrong.push(format!("    (\"{name}\", \"{got}\"), // pinned {pinned:?}"));
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

fn consumer(path: &Path, columns: &str, sink: &Path, workers: usize) -> SqlPipeline {
    let mut session = session();
    session.set_driver_config(fixed(POLL, workers));
    let script = format!(
        "CREATE PARTITIONED SOURCE feed {columns}
           WITH (connector = 'net', addr = 'unix:{}', partitions = 1, poll_wait_ms = 200);
         CREATE SINK out WITH (connector = 'file', path = '{}', transactional = TRUE);
         INSERT INTO out SELECT * FROM feed EMIT STREAM;",
        path.display(),
        sink.display()
    );
    session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap()
}

fn net_sink(path: &Path) -> String {
    format!(
        "CREATE SINK wire WITH (connector = 'net', addr = 'unix:{}', stream = 'feed',
                               batch_events = {FRAME}, connect_timeout_ms = 30000);",
        path.display()
    )
}

/// Run a producer assembled by `producer` against a consumer of `columns`;
/// with `kill`, the consumer checkpoints inside a frame, dies, and a fresh
/// one restores. The consumer's digest.
fn chain(
    columns: &str,
    workers: usize,
    kill: bool,
    producer: impl FnOnce(&Path) -> SqlPipeline + Send + 'static,
) -> String {
    let path = scratch("wire").with_extension("sock");
    let sink = scratch("out").with_extension("csv");
    let mut first = consumer(&path, columns, &sink, workers);
    let (paused_tx, paused) = mpsc::channel::<()>();
    let (go, go_rx) = mpsc::channel::<()>();
    let (done, done_rx) = mpsc::channel::<()>();
    let producer = {
        let path = path.clone();
        std::thread::spawn(move || {
            let mut pipeline = producer(&path);
            if kill {
                // Stop halfway until the consumer has been killed and
                // restored: what it sends next goes to the new one.
                while !pipeline.driver_mut().is_finished()
                    && pipeline.driver_mut().events_in() < EVENTS / 2
                {
                    pipeline.step().unwrap();
                }
                paused_tx.send(()).unwrap();
                go_rx.recv().unwrap();
            }
            let metrics = pipeline.run().unwrap();
            // The socket stays open until the consumer has read it all.
            let _ = done_rx.recv();
            metrics.events_in
        })
    };
    let mut last = if kill {
        // Checkpoint at the first poll that ends inside a frame past the
        // first, then read on until the producer has paused.
        let driver = first.driver_mut();
        let (mut checkpoint, mut stopped) = (None, false);
        for _ in 0..10_000 {
            driver.step().unwrap();
            assert!(
                !driver.is_finished(),
                "the consumer finished before the kill"
            );
            let n = driver.events_in();
            if checkpoint.is_none() && n > FRAME as u64 && !n.is_multiple_of(FRAME as u64) {
                let taken = driver.checkpoint().unwrap();
                driver.ack_checkpoint(&taken).unwrap();
                checkpoint = Some(taken);
            }
            stopped |= paused.try_recv().is_ok();
            if stopped && checkpoint.is_some() {
                break;
            }
        }
        let checkpoint = checkpoint.expect("no checkpoint inside a frame");
        assert!(stopped, "the producer never paused");
        drop(first);
        let mut restored = consumer(&path, columns, &sink, workers);
        restored.driver_mut().restore(&checkpoint).unwrap();
        go.send(()).unwrap();
        restored
    } else {
        first
    };
    let events_in = drive(&mut last, &producer).unwrap();
    done.send(()).unwrap();
    producer.join().unwrap();
    drop(last);
    let digest = digest(&sink, events_in);
    let _ = std::fs::remove_file(&sink);
    digest
}

/// Step `consumer` to its end, then its `events_in`. The producer waits
/// for the consumer to finish, so one that stops first has panicked.
fn drive<T>(
    consumer: &mut SqlPipeline,
    producer: &std::thread::JoinHandle<T>,
) -> onesql_types::Result<u64> {
    while !consumer.driver_mut().is_finished() {
        consumer.step()?;
        assert!(!producer.is_finished(), "the producer stopped first");
    }
    Ok(consumer.metrics().events_in)
}

fn nexmark(query: &'static str, columns: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for workers in [1, 2] {
        for kill in [false, true] {
            let digest = chain(columns, workers, kill, move |path| {
                let mut session = session();
                session.set_driver_config(fixed(64, workers));
                let script = format!(
                    "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = {EVENTS});
                     {}
                     INSERT INTO wire {query} EMIT STREAM;",
                    net_sink(path)
                );
                session
                    .execute_script(&script)
                    .unwrap()
                    .into_pipeline()
                    .unwrap()
            });
            let kill = if kill { "-killed" } else { "" };
            out.push((format!("w{workers}{kill}"), digest));
        }
    }
    out
}

/// The results under `prefix`; a killed and restored consumer must also
/// write what the uninterrupted one does.
fn named(prefix: &str, results: Vec<(String, String)>) -> Vec<(String, String)> {
    for pair in results.chunks(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "{prefix}: {} and {}",
            pair[0].0, pair[1].0
        );
    }
    (results.into_iter())
        .map(|(name, digest)| (format!("{prefix}-{name}"), digest))
        .collect()
}

#[test]
fn q0_over_the_wire() {
    let columns =
        "(auction INT, bidder INT, price INT, dateTime TIMESTAMP, WATERMARK FOR dateTime)";
    check(&named("q0", nexmark(queries::Q0, columns)));
}

#[test]
fn q1_over_the_wire() {
    let columns =
        "(auction INT, bidder INT, price_eur INT, dateTime TIMESTAMP, WATERMARK FOR dateTime)";
    check(&named("q1", nexmark(queries::Q1, columns)));
}

#[test]
fn q5_with_its_undos_over_the_wire() {
    let columns = "(auction INT, wend TIMESTAMP, bids INT, WATERMARK FOR wend)";
    check(&named("q5", nexmark(queries::Q5_HOT_ITEMS, columns)));
}

#[test]
fn q7_over_the_wire() {
    let columns = "(wstart TIMESTAMP, wend TIMESTAMP, dateTime TIMESTAMP, price INT,
                    auction INT, WATERMARK FOR dateTime)";
    check(&named("q7", nexmark(queries::Q7, columns)));
}

/// Rows of every value kind the wire carries.
fn odd_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let strings = ["plain", "a,b", "say \"hi\"", "two\nlines", "", "é,\"\n"];
    let floats = [1.5, f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 0.0];
    for i in 0..120i64 {
        let null = |v: Value| if i % 7 == 3 { Value::Null } else { v };
        rows.push(row!(
            i,
            null(Value::str(strings[i as usize % strings.len()])),
            null(Value::Float(floats[i as usize % floats.len()])),
            null(Value::Bool(i % 3 == 0)),
            null(Value::Interval(Duration(i * 1_000 - 7))),
            Value::Ts(Ts(1_000 + i))
        ));
    }
    rows
}

#[test]
fn every_value_kind_over_the_wire() {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("s", DataType::String),
        Field::new("f", DataType::Float),
        Field::new("b", DataType::Bool),
        Field::new("d", DataType::Interval),
        Field::event_time("t"),
    ]);
    let mut replay = Replay::new([("Odd", schema)]);
    for (i, row) in odd_rows().into_iter().enumerate() {
        let ptime = Ts(i as i64 / 3);
        if i % 11 == 5 {
            replay.insert(ptime, "Odd", row.clone());
            replay.retract(ptime, "Odd", row);
        } else {
            replay.insert(ptime, "Odd", row);
        }
        if i % 25 == 24 {
            replay.watermark(ptime, Ts(1_000 + i as i64 - 10));
        }
    }
    let columns = "(id INT, s STRING, f DOUBLE, b BOOLEAN, d INTERVAL, t TIMESTAMP,
                    WATERMARK FOR t)";
    let mut results = Vec::new();
    for workers in [1, 2] {
        let replay = replay.clone();
        let digest = chain(columns, workers, false, move |path| {
            let mut registry = default_registry();
            registry.register_source("replay", replay);
            let mut session = Session::new(registry);
            session.set_driver_config(fixed(64, workers));
            let script = format!(
                "CREATE SOURCE src WITH (connector = 'replay');
                 {}
                 INSERT INTO wire SELECT * FROM Odd EMIT STREAM;",
                net_sink(path)
            );
            session
                .execute_script(&script)
                .unwrap()
                .into_pipeline()
                .unwrap()
        });
        results.push((format!("values-w{workers}"), digest));
    }
    check(&results);
}

/// A consumer of two streams, `A (k INT, s STRING)` and `B (k INT)`, and a
/// publisher interleaving them; `wrong_arity` appends a row of arity 1 on
/// `A`. The digest, with the consumer's error when it fails.
fn two_streams(wrong_arity: bool) -> String {
    let path = scratch("two").with_extension("sock");
    let sink = scratch("two").with_extension("csv");
    let mut session = session();
    session.set_driver_config(fixed(POLL, 1));
    let script = format!(
        "CREATE STREAM A (k INT, s STRING);
         CREATE STREAM B (k INT);
         CREATE PARTITIONED SOURCE feed
           WITH (connector = 'net', addr = 'unix:{}', partitions = 1, streams = 'A,B',
                 poll_wait_ms = 200);
         CREATE SINK out WITH (connector = 'file', path = '{}');
         INSERT INTO out SELECT k FROM A UNION ALL SELECT k FROM B EMIT STREAM;",
        path.display(),
        sink.display()
    );
    let mut pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    let addr = NetAddr::unix(&path);
    let (done, done_rx) = mpsc::channel::<()>();
    let producer = std::thread::spawn(move || {
        let config = NetConfig {
            batch_events: FRAME,
            connect_timeout: StdDuration::from_secs(30),
            ..NetConfig::default()
        };
        let streams = vec!["A".to_string(), "B".to_string()];
        let mut publisher = NetPublisher::new(addr, 0, streams, config);
        for i in 0..100i64 {
            let ptime = Ts(i / 4);
            if i % 3 == 0 {
                publisher.insert(1, ptime, row!(i)).unwrap();
            } else {
                publisher
                    .insert(0, ptime, row!(i, format!("s{i}").as_str()))
                    .unwrap();
            }
            if i % 20 == 19 {
                publisher.watermark(ptime).unwrap();
            }
        }
        if wrong_arity {
            publisher.insert(0, Ts(30), row!(7i64)).unwrap();
        }
        publisher.finish().unwrap();
        let _ = done_rx.recv();
    });
    let outcome = drive(&mut pipeline, &producer);
    done.send(()).unwrap();
    producer.join().unwrap();
    // Dropped first, so the sink's buffer reaches the file.
    drop(pipeline);
    let outcome = match outcome {
        Ok(events_in) => digest(&sink, events_in),
        Err(e) => format!("{} after {e}", digest(&sink, 0)),
    };
    let _ = std::fs::remove_file(&sink);
    outcome
}

#[test]
fn two_streams_and_a_wrong_arity_row_over_the_wire() {
    check(&[
        ("two-streams".to_string(), two_streams(false)),
        ("wrong-arity".to_string(), two_streams(true)),
    ]);
}
