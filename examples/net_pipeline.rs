//! Pipelines that span processes: a NEXMark producer feeds a sharded Q7
//! consumer over a unix socket, the consumer is killed mid-stream, and a
//! restored consumer picks up from the checkpoint — with the producer
//! surviving the crash by replaying its spool over the resume handshake.
//!
//! Run with: `cargo run --release --example net_pipeline`

use std::time::Duration as StdDuration;

use onesql::connect::{default_registry, PartitionedNexmarkSource, PartitionedSource};
use onesql::{HistoryTap, NetAddr, NetConfig, NetPublisher, Session, SourceStatus, SqlPipeline};
use onesql_types::Result;

const EVENTS: u64 = 6_000;
const PARTS: usize = 4;
const BATCH: usize = 256;
const STREAMS: [&str; 3] = ["Person", "Auction", "Bid"];

fn net_config() -> NetConfig {
    NetConfig {
        batch_events: BATCH,
        connect_timeout: StdDuration::from_secs(30),
        poll_wait: StdDuration::from_secs(10),
        ..NetConfig::default()
    }
}

/// The producer "process": pumps the seeded workload through one
/// publisher per partition, then drains acks across all of them (see
/// `NetPublisher::poll_drained` for why draining must interleave).
fn run_producer(addr: NetAddr) -> Result<()> {
    let mut source = PartitionedNexmarkSource::seeded(7, EVENTS, PARTS);
    let streams: Vec<String> = STREAMS.iter().map(|s| s.to_string()).collect();
    let mut publishers: Vec<NetPublisher> = (0..PARTS)
        .map(|p| NetPublisher::new(addr.clone(), p, streams.clone(), net_config()))
        .collect();
    let mut live = [true; PARTS];
    while live.iter().any(|&l| l) {
        for p in 0..PARTS {
            if !live[p] {
                continue;
            }
            let batch = source.poll_partition(p, BATCH)?;
            for event in batch.events {
                publishers[p].send(event.stream, event.ptime, event.change)?;
            }
            if let Some(wm) = batch.watermark {
                publishers[p].watermark(wm)?;
            }
            if batch.status == SourceStatus::Finished {
                publishers[p].finish()?;
                live[p] = false;
            }
        }
    }
    let deadline = std::time::Instant::now() + StdDuration::from_secs(60);
    while !publishers
        .iter_mut()
        .map(|p| p.poll_drained())
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .all(|drained| drained)
    {
        if std::time::Instant::now() >= deadline {
            return Err(onesql_types::Error::exec("producer drain timed out"));
        }
        std::thread::sleep(StdDuration::from_millis(2));
    }
    Ok(())
}

/// The consumer "process", declared in SQL: Q7 sharded over 2 workers,
/// fed only by the socket, polls aligned with the producer's frames, its
/// output recorded by a tap.
fn bind_consumer(path: &std::path::Path) -> (HistoryTap, SqlPipeline) {
    let tap = HistoryTap::new();
    let mut registry = default_registry();
    registry.register_sink("tap", tap.clone());
    let mut session = Session::new(registry);
    // Equal bounds pin the poll size.
    let script = format!(
        "SET workers = 2; SET batch_size = {BATCH};
         SET min_batch = {BATCH}; SET max_batch = {BATCH};
         CREATE STREAM Person (id INT, name STRING, email STRING, city STRING,
                               state STRING, dateTime TIMESTAMP, WATERMARK FOR dateTime);
         CREATE STREAM Auction (id INT, itemName STRING, initialBid INT, reserve INT,
                                dateTime TIMESTAMP, expires TIMESTAMP, seller INT,
                                category INT, WATERMARK FOR dateTime);
         CREATE STREAM Bid (auction INT, bidder INT, price INT, dateTime TIMESTAMP,
                            WATERMARK FOR dateTime);
         CREATE PARTITIONED SOURCE feed
           WITH (connector = 'net', addr = 'unix:{}', partitions = {PARTS},
                 streams = '{}', poll_wait_ms = 10000);
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out {};",
        path.display(),
        STREAMS.join(","),
        onesql_nexmark::queries::Q7
    );
    let pipeline = session.execute_script(&script).unwrap().into_pipeline();
    (tap, pipeline.unwrap())
}

fn main() {
    let path = std::env::temp_dir().join(format!("onesql_net_example_{}.sock", std::process::id()));
    let addr = NetAddr::unix(&path);
    let producer = {
        let addr = addr.clone();
        std::thread::spawn(move || run_producer(addr))
    };

    // First consumer: ingest half the stream, checkpoint, "crash".
    let (rows, mut victim) = bind_consumer(&path);
    while victim.events_in() < EVENTS / 2 {
        victim.step().unwrap();
    }
    let driver = victim.driver_mut();
    let checkpoint = driver.checkpoint().unwrap();
    // In a real deployment the checkpoint is written to disk here; only
    // then is it acknowledged, letting the producer trim its spool.
    driver.ack_checkpoint(&checkpoint).unwrap();
    let observed_before = rows.rows().len();
    println!(
        "killed consumer at {} events (checkpoint offsets {:?}), {} output rows so far",
        victim.events_in(),
        checkpoint.offsets,
        observed_before
    );
    drop(victim); // driver, workers, source, and listener all die

    // Restored consumer: fresh listener on the same path, state from the
    // checkpoint; the producer reconnects and replays the missing suffix.
    let (resumed_rows, mut resumed) = bind_consumer(&path);
    resumed.driver_mut().restore(&checkpoint).unwrap();
    resumed.run().unwrap();
    producer.join().unwrap().unwrap();

    let metrics = resumed.metrics();
    println!(
        "restored consumer finished: {} events total, {} more output rows",
        metrics.events_in,
        resumed_rows.rows().len()
    );
    assert_eq!(metrics.events_in, EVENTS);
    let _ = std::fs::remove_file(&path);
    println!("exactly-once across the process boundary: OK");
}
