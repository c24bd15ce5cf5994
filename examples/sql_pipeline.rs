//! The NEXMark-over-socket pipeline, declared as **pure SQL**: the
//! consumer is one script — stream schemas, a partitioned network
//! source, a changelog sink, and the Q7 `INSERT INTO ... SELECT ... EMIT`
//! — executed through `Session::execute_script`. The only imperative
//! Rust left is the producer "process" on the other end of the socket,
//! exactly as a real deployment would have it.
//!
//! Run with: `cargo run --release --example sql_pipeline`

use std::sync::{Arc, Mutex};
use std::time::Duration as StdDuration;

use onesql::connect::{session, PartitionedNexmarkSource, PartitionedSource};
use onesql::{NetAddr, NetConfig, NetPublisher, SourceStatus};
use onesql_nexmark::queries;
use onesql_types::Result;

const EVENTS: u64 = 6_000;
const PARTS: usize = 4;
// Q7's MAX is per ten-minute window, so the plan routes each Bid by its
// window (`EXPLAIN` prints the `Route:` line): two workers give the one
// worker's answer.
const WORKERS: usize = 2;
const BATCH: usize = 256;
const STREAMS: [&str; 3] = ["Person", "Auction", "Bid"];

/// The producer "process": one publisher per partition, drained
/// together.
fn run_producer(addr: NetAddr) -> Result<()> {
    let config = NetConfig {
        batch_events: BATCH,
        connect_timeout: StdDuration::from_secs(30),
        ..NetConfig::default()
    };
    let mut source = PartitionedNexmarkSource::seeded(7, EVENTS, PARTS);
    let streams: Vec<String> = STREAMS.iter().map(|s| s.to_string()).collect();
    let mut publishers: Vec<NetPublisher> = (0..PARTS)
        .map(|p| NetPublisher::new(addr.clone(), p, streams.clone(), config))
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
    loop {
        let mut all = true;
        for publisher in &mut publishers {
            all &= publisher.poll_drained()?;
        }
        if all {
            return Ok(());
        }
        if std::time::Instant::now() >= deadline {
            return Err(onesql_types::Error::exec("producer drain timed out"));
        }
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

fn main() -> Result<()> {
    let dir = std::env::temp_dir().join("onesql_sql_example");
    std::fs::create_dir_all(&dir).map_err(|e| onesql_types::Error::exec(e.to_string()))?;
    let socket = dir.join(format!("q7-{}.sock", std::process::id()));

    // The consumer, declared entirely in SQL. The three CREATE STREAM
    // statements give the NEXMark schemas; the partitioned net source
    // references them (in the producer's handshake order); Q7 feeds the
    // changelog sink.
    let script = format!(
        "CREATE STREAM Person (id INT, name STRING, email STRING, city STRING,
                               state STRING, dateTime TIMESTAMP,
                               WATERMARK FOR dateTime);
         CREATE STREAM Auction (id INT, itemName STRING, initialBid INT,
                                reserve INT, dateTime TIMESTAMP, expires TIMESTAMP,
                                seller INT, category INT,
                                WATERMARK FOR dateTime);
         CREATE STREAM Bid (auction INT, bidder INT, price INT,
                            dateTime TIMESTAMP, WATERMARK FOR dateTime);

         CREATE PARTITIONED SOURCE feed
           WITH (connector = 'net', addr = 'unix:{socket}',
                 partitions = {PARTS}, streams = 'Person,Auction,Bid',
                 poll_wait_ms = 10000);

         CREATE SINK wins WITH (connector = 'changelog');

         EXPLAIN {q7};

         INSERT INTO wins {q7} EMIT STREAM;",
        socket = socket.display(),
        q7 = queries::Q7,
    );

    let mut session = session();
    session.execute(&format!("SET workers = {WORKERS}"))?;

    // Lint before running: the only finding should be the deliberately
    // ungated EMIT (this example exists to show the raw changelog).
    let report = onesql::core::render_report(&session.lint_script(&script), &script);
    println!("== EXPLAIN LINT ==\n{report}");
    assert!(report.contains("OSQL003"), "expected only the EMIT finding");

    let outcome = session.execute_script(&script)?;
    println!("== Q7 plan ==\n{}", outcome.explains()[0]);
    let mut pipeline = outcome.into_pipeline()?;
    let rendered = session
        .take_handle::<Arc<Mutex<String>>>("wins")
        .expect("changelog sink exports its buffer");

    // The producer lives on the far side of the socket.
    let addr = NetAddr::unix(&socket);
    let producer = std::thread::spawn(move || run_producer(addr));

    assert_eq!(pipeline.workers(), WORKERS, "SET workers applied");
    let metrics = pipeline.run()?;
    producer.join().expect("producer thread")?;

    let changelog = rendered.lock().unwrap();
    let lines: Vec<&str> = changelog.lines().collect();
    println!("== last Q7 revisions ==");
    for line in lines.iter().rev().take(8).rev() {
        println!("{line}");
    }
    println!(
        "== done: {} events in, {} changelog rows out, {} workers ==",
        metrics.events_in, metrics.events_out, WORKERS
    );
    assert_eq!(metrics.events_in, EVENTS);
    assert!(metrics.events_out > 0, "Q7 produced no output");
    let _ = std::fs::remove_file(&socket);
    Ok(())
}
