//! Pipelines that span processes, black-box: a producer and a consumer
//! connected only by a socket must behave exactly like one process — and
//! killing the consumer mid-stream must be invisible in the changelog.
//!
//! The exactly-once test is the cross-process version of
//! `tests/sharded_pipeline.rs`: run NEXMark Q7 sharded over a socket and
//! let `onesql_checker`'s seeded nemesis pick where checkpoints land and
//! where the consumer dies (driver, source, and listener all dropped); a
//! fresh consumer process-equivalent restores from the checkpoint each
//! time, and the checker's oracles — replay-identical effective history,
//! monotone watermarks, balanced retractions — replace hand-rolled
//! changelog comparison (see `docs/CHECKING.md`). The producer survives
//! the crash: its bounded replay spool plus the resume handshake re-send
//! exactly the unacknowledged suffix.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration as StdDuration;

use onesql::connect::{default_registry, session, PartitionedNexmarkSource, PartitionedSource};
use onesql::{
    ChannelPublisher, DriverConfig, HistoryTap, NetAddr, NetConfig, NetPublisher,
    PartitionedNetSource, Session, SqlPipeline,
};
use onesql_nexmark::queries;
use onesql_types::{row, Result, Ts};

use common::assemble;

const NEXMARK_EVENTS: u64 = 6_000;
const PARTS: usize = 4;
const BATCH: usize = 256;
const STREAMS: [&str; 3] = ["Person", "Auction", "Bid"];

/// The NEXMark streams, declared for a net source that feeds them.
const NEXMARK_STREAMS: &str = "
    CREATE STREAM Person (id INT, name STRING, email STRING, city STRING,
                          state STRING, dateTime TIMESTAMP, WATERMARK FOR dateTime);
    CREATE STREAM Auction (id INT, itemName STRING, initialBid INT, reserve INT,
                           dateTime TIMESTAMP, expires TIMESTAMP, seller INT, category INT,
                           WATERMARK FOR dateTime);
    CREATE STREAM Bid (auction INT, bidder INT, price INT, dateTime TIMESTAMP,
                       WATERMARK FOR dateTime);";

/// The `Bid` stream's columns, as a `CREATE SOURCE` declares them.
const BID_COLUMNS: &str = "(auction INT, price INT, bidtime TIMESTAMP, WATERMARK FOR bidtime)";

/// A session under `config` whose sink family `tap` records into `tap`.
fn tapped_session(tap: &HistoryTap, config: DriverConfig) -> Session {
    let mut registry = default_registry();
    registry.register_sink("tap", tap.clone());
    let mut session = Session::new(registry);
    session.set_driver_config(config);
    session
}

/// Unique socket path per test, replaced on rebind (consumer restart).
fn socket_path(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("onesql_net_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Producer-side config: frames aligned with the consumer's poll batches
/// (see the determinism notes in `onesql_connect::net`), generous windows
/// so a consumer restart is survived, not raced.
fn net_config() -> NetConfig {
    NetConfig {
        batch_events: BATCH,
        connect_timeout: StdDuration::from_secs(30),
        poll_wait: StdDuration::from_secs(10),
        ack_wait: StdDuration::from_secs(30),
        ..NetConfig::default()
    }
}

// ---------------------------------------------------------------------------
// The producer "process": NEXMark over sockets, surviving consumer death.
// ---------------------------------------------------------------------------

/// Pump the seeded NEXMark workload through one publisher per partition,
/// then wait until the consumer side has acknowledged every event (which
/// outlives consumer crashes: the publishers reconnect and replay).
fn run_producer(addr: NetAddr) -> Result<()> {
    let mut source = PartitionedNexmarkSource::seeded(7, NEXMARK_EVENTS, PARTS);
    let streams: Vec<String> = STREAMS.iter().map(|s| s.to_string()).collect();
    let mut publishers: Vec<NetPublisher> = (0..PARTS)
        .map(|p| NetPublisher::new(addr.clone(), p, streams.clone(), net_config()))
        .collect();
    let mut live: Vec<bool> = vec![true; PARTS];
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
            if batch.status == onesql::SourceStatus::Finished {
                publishers[p].finish()?;
                live[p] = false;
            }
        }
    }
    // Drain acks across ALL partitions in one loop: a consumer restored
    // mid-stream needs every partition replayed before it can finish and
    // send the final acks, so blocking on one publisher at a time would
    // deadlock (see NetPublisher::poll_drained).
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

/// Like [`run_producer`], but the producer "process" is killed once each
/// partition has published `limit` events: the publishers are dropped
/// without `finish`, spool and all — exactly what a SIGKILL leaves
/// behind. Frames already on the wire stay; the trailing partial frame
/// dies with the process.
fn run_producer_killed_at(addr: NetAddr, limit: u64) -> Result<()> {
    let mut source = PartitionedNexmarkSource::seeded(7, NEXMARK_EVENTS, PARTS);
    let streams: Vec<String> = STREAMS.iter().map(|s| s.to_string()).collect();
    let mut publishers: Vec<NetPublisher> = (0..PARTS)
        .map(|p| NetPublisher::new(addr.clone(), p, streams.clone(), net_config()))
        .collect();
    for (p, publisher) in publishers.iter_mut().enumerate() {
        while publisher.offset() < limit {
            let want = (limit - publisher.offset()).min(BATCH as u64) as usize;
            let batch = source.poll_partition(p, want)?;
            for event in batch.events {
                publisher.send(event.stream, event.ptime, event.change)?;
            }
            if let Some(wm) = batch.watermark {
                publisher.watermark(wm)?;
            }
            if batch.status == onesql::SourceStatus::Finished {
                break;
            }
        }
    }
    Ok(()) // publishers dropped here, mid-stream: the kill
}

/// The consumer "process": a sharded Q7 pipeline whose only input is the
/// socket, writing into `tap`. Fixed poll batches aligned with the
/// producer's frames keep the changelog a pure function of the byte
/// stream. With `restarts`, a dead producer connection releases its
/// partition for the producer's next incarnation.
fn bind_consumer(path: &std::path::Path, restarts: bool, tap: &HistoryTap) -> SqlPipeline {
    let mut session = tapped_session(tap, common::fixed_batch(BATCH, 2));
    let script = format!(
        "{NEXMARK_STREAMS}
         CREATE PARTITIONED SOURCE feed
           WITH (connector = 'net', addr = 'unix:{}', partitions = {PARTS},
                 streams = 'Person,Auction,Bid', poll_wait_ms = 10000,
                 producer_restarts = {restarts});
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out {};",
        path.display(),
        queries::Q7
    );
    assemble(&mut session, &script)
}

/// One uninterrupted producer/consumer run; returns its observable
/// history (the checker's reference).
fn reference_history(tag: &str, restarts: bool) -> Vec<onesql::HistoryEvent> {
    let path = socket_path(tag);
    let tap = HistoryTap::new();
    let mut driver = bind_consumer(&path, restarts, &tap);
    let addr = NetAddr::unix(&path);
    let producer = std::thread::spawn(move || run_producer(addr));
    driver.run().unwrap();
    producer.join().unwrap().unwrap();
    let history = tap.events();
    assert!(
        history
            .iter()
            .any(|e| matches!(e, onesql::HistoryEvent::Emitted(_))),
        "Q7 produced no output"
    );
    history
}

#[test]
fn nexmark_q7_survives_consumer_kills_under_the_nemesis() {
    use onesql_checker::{
        effective_history, replay_identical, retraction_balanced, watermark_monotone, Nemesis,
    };

    let reference = reference_history("q7-reference", false);

    // Victim: same workload, but the seeded nemesis decides where the
    // checkpoints land, how much uncommitted staging each wire kill
    // discards, and how many kills there are.
    let mut nemesis = Nemesis::seeded(31);
    let plan = nemesis.plan(NEXMARK_EVENTS);
    assert!(plan.cycles.len() >= 2, "want at least a double kill");

    let path = socket_path("q7-victim");
    let addr = NetAddr::unix(&path);
    let producer = {
        let addr = addr.clone();
        std::thread::spawn(move || run_producer(addr))
    };
    let tap = HistoryTap::new();
    let mut victim = bind_consumer(&path, false, &tap);

    for cycle in &plan.cycles {
        let driver = victim.driver_mut();
        while !driver.is_finished() && driver.events_in() < cycle.checkpoint_at {
            driver.step().unwrap();
        }
        if driver.is_finished() {
            break;
        }
        let checkpoint = driver.checkpoint().unwrap();
        // The checkpoint is "persisted" (it lives in this test);
        // acknowledge it so the producer trims its spool — resume must
        // still work from exactly the acked offsets.
        driver.ack_checkpoint(&checkpoint).unwrap();
        while !driver.is_finished() && driver.events_in() < cycle.kill_at {
            driver.step().unwrap();
        }
        // The crash: driver, workers, net source, and listener all die.
        // The producer is connected to nothing and must hold its spool.
        drop(victim);

        // The restored consumer "process": a fresh listener on the same
        // address, a fresh driver, state from the checkpoint. Its
        // handshake tells the reconnecting producer where to resume.
        victim = bind_consumer(&path, false, &tap);
        victim.driver_mut().restore(&checkpoint).unwrap();
        let restored_events: u64 = checkpoint.offsets.iter().flatten().sum();
        assert_eq!(victim.metrics().events_in, restored_events);
    }
    victim.run().unwrap();
    producer.join().unwrap().unwrap();

    // The oracles replace hand-rolled changelog comparison: splice out
    // each kill's discarded staging, then the effective history must be
    // the uninterrupted run's.
    let effective = effective_history(&tap.events());
    let mut violations = replay_identical(&reference, &effective);
    violations.extend(watermark_monotone(&effective));
    violations.extend(retraction_balanced(&effective));
    assert!(violations.is_empty(), "oracle violations: {violations:#?}");
}

// ---------------------------------------------------------------------------
// The mirror image: the *producer* process is killed and restarted.
// ---------------------------------------------------------------------------

#[test]
fn nexmark_q7_survives_producer_kill_and_restart() {
    use onesql_checker::{replay_identical, retraction_balanced, watermark_monotone};

    // Consumer-side restart tolerance: a dead connection releases its
    // partition for the producer's next incarnation instead of
    // poisoning the pipeline. Reference: same tolerant consumer, producer
    // never killed.
    let reference = reference_history("q7-pref", true);

    // Victim: the producer dies once each partition published ~half its
    // share, then a fresh producer process regenerates the same
    // deterministic workload from the start. The handshake floor drops
    // everything the consumer already ingested, so the observable
    // history must come out identical — the consumer never even
    // notices, and there is nothing for `effective_history` to splice.
    let path = socket_path("q7-pkill");
    let addr = NetAddr::unix(&path);
    let tap = HistoryTap::new();
    let mut driver = bind_consumer(&path, true, &tap);
    let kill_at = NEXMARK_EVENTS / PARTS as u64 / 2;
    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || run_producer_killed_at(addr, kill_at))
    };
    // Drive the consumer while the first incarnation runs and dies.
    // (Its handshakes block until the driver polls, so stepping here is
    // what lets the producer make progress at all.)
    while !first.is_finished() {
        driver.step().unwrap();
    }
    first.join().unwrap().unwrap();

    // The restarted producer re-publishes from scratch and finishes.
    let second = std::thread::spawn(move || run_producer(addr));
    driver.run().unwrap();
    second.join().unwrap().unwrap();

    let history = tap.events();
    let mut violations = replay_identical(&reference, &history);
    violations.extend(watermark_monotone(&history));
    violations.extend(retraction_balanced(&history));
    assert!(
        violations.is_empty(),
        "oracle violations after producer restart: {violations:#?}"
    );
}

// ---------------------------------------------------------------------------
// Plain driver over TCP.
// ---------------------------------------------------------------------------

#[test]
fn filter_pipeline_over_tcp() {
    let tap = HistoryTap::new();
    let mut session = tapped_session(&tap, DriverConfig::default());
    let script = format!(
        "CREATE SOURCE Bid {BID_COLUMNS} WITH (connector = 'net', addr = 'tcp:127.0.0.1:0');
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out SELECT auction, price FROM Bid WHERE price >= 50 EMIT STREAM;"
    );
    let mut driver = assemble(&mut session, &script);
    let addr = session.take_handle::<NetAddr>("Bid").unwrap();

    let producer = std::thread::spawn(move || -> Result<u64> {
        let mut publisher =
            NetPublisher::new(addr, 0, vec!["Bid".to_string()], NetConfig::default());
        for i in 0..100i64 {
            publisher.insert(0, Ts(i), row!(i % 7, i, Ts(i)))?;
        }
        publisher.watermark(Ts(99))?;
        publisher.finish()?;
        Ok(publisher.offset())
    });

    let metrics = driver.run().unwrap();
    assert_eq!(metrics.events_in, 100);
    assert_eq!(metrics.events_out, 50);
    assert_eq!(producer.join().unwrap().unwrap(), 100);
    assert_eq!(tap.rows().len(), 50);
}

#[test]
fn restore_over_a_plain_net_source_is_refused() {
    // `NetSource` acks as it consumes, so the producer has already trimmed
    // what a restored consumer would need; seeking by poll-and-discard
    // would eat whatever the live wire delivers next instead.
    const EVENTS: u64 = 20;
    let consumer = || {
        let mut session = session();
        let script = format!(
            "CREATE SOURCE Bid {BID_COLUMNS}
               WITH (connector = 'net', addr = 'tcp:127.0.0.1:0', poll_wait_ms = 10000);
             CREATE SINK out WITH (connector = 'changelog');
             INSERT INTO out SELECT auction, price FROM Bid EMIT STREAM;"
        );
        let driver = assemble(&mut session, &script);
        (session.take_handle::<NetAddr>("Bid").unwrap(), driver)
    };

    let (addr, mut victim) = consumer();
    let (checkpointed, hold) = std::sync::mpsc::channel::<()>();
    let producer = std::thread::spawn(move || -> Result<()> {
        let mut publisher = NetPublisher::new(addr, 0, vec!["Bid".to_string()], net_config());
        for i in 0..EVENTS as i64 {
            publisher.insert(0, Ts(i), row!(i % 7, i, Ts(i)))?;
        }
        publisher.flush()?;
        // Keep the connection open (the source unfinished) until the
        // consumer has its checkpoint.
        let _ = hold.recv();
        Ok(())
    });
    while victim.events_in() < EVENTS {
        victim.step().unwrap();
    }
    let checkpoint = victim.driver_mut().checkpoint().unwrap();
    assert_eq!(checkpoint.offsets, vec![vec![EVENTS]]);
    drop(victim); // kill
    drop(checkpointed);
    producer.join().unwrap().unwrap();

    let (_addr, mut fresh) = consumer();
    let err = fresh
        .driver_mut()
        .restore(&checkpoint)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("net:tcp:127.0.0.1:0") && err.contains("not replayable"),
        "{err}"
    );
}

// ---------------------------------------------------------------------------
// Two pipelines chained across "processes": changelog out, stream in.
// ---------------------------------------------------------------------------

#[test]
fn pipelines_chain_through_net_sink() {
    // Downstream pipeline: consumes the upstream changelog as a stream.
    let mut downstream = session();
    let script = "CREATE SOURCE Mid (auction INT, price INT)
                    WITH (connector = 'net', addr = 'tcp:127.0.0.1:0');
                  CREATE SINK out WITH (connector = 'changelog');
                  INSERT INTO out SELECT auction, COUNT(*), SUM(price) FROM Mid GROUP BY auction;";
    let mut driver = assemble(&mut downstream, script);
    let addr = downstream.take_handle::<NetAddr>("Mid").unwrap();

    // Upstream pipeline in its own thread: filter bids, ship the output
    // changelog through a net sink.
    let upstream = std::thread::spawn(move || -> Result<()> {
        let mut session = session();
        let script = format!(
            "CREATE SOURCE Bid {BID_COLUMNS} WITH (connector = 'channel', capacity = 64);
             CREATE SINK mid WITH (connector = 'net', addr = '{addr}', stream = 'Mid');
             INSERT INTO mid SELECT auction, price FROM Bid WHERE price > 10 EMIT STREAM;"
        );
        let mut driver = session.execute_script(&script)?.into_pipeline()?;
        let mut publishers = session.take_handle::<Vec<ChannelPublisher>>("Bid").unwrap();
        let publisher = publishers.remove(0);
        for i in 0..60i64 {
            publisher.insert(Ts(i), row!(i % 5, i, Ts(i)))?;
        }
        publisher.finish()?;
        driver.run()?;
        Ok(())
    });
    driver.run().unwrap();
    upstream.join().unwrap().unwrap();

    // 60 bids, prices 0..60, filter keeps 11..59 → 49 rows across 5 keys.
    assert_eq!(driver.metrics().events_in, 49);
    let mut table = driver.table().unwrap();
    table.sort();
    let total: i64 = (11..60).sum();
    let counted: i64 = table
        .iter()
        .map(|r| r.value(1).unwrap().as_int().unwrap())
        .sum();
    let summed: i64 = table
        .iter()
        .map(|r| r.value(2).unwrap().as_int().unwrap())
        .sum();
    assert_eq!(table.len(), 5);
    assert_eq!(counted, 49);
    assert_eq!(summed, total);
}

// ---------------------------------------------------------------------------
// Malformed frames poison the driver — never panic, never half-continue.
// ---------------------------------------------------------------------------

#[test]
fn malformed_frames_poison_the_sharded_driver() {
    let config = DriverConfig {
        workers: 2,
        ..DriverConfig::default()
    };
    let mut session = tapped_session(&HistoryTap::new(), config);
    let script = format!(
        "CREATE PARTITIONED SOURCE Bid {BID_COLUMNS}
           WITH (connector = 'net', addr = 'tcp:127.0.0.1:0', partitions = 1,
                 poll_wait_ms = 100);
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out SELECT auction, price FROM Bid;"
    );
    let mut driver = assemble(&mut session, &script);
    let addr = session.take_handle::<NetAddr>("Bid").unwrap();

    // A "producer" speaking a future protocol version: the handshake is
    // rejected and the failure must reach the driver as a source error.
    let client = std::thread::spawn(move || {
        use std::io::Write;
        let NetAddr::Tcp(addr) = addr else {
            unreachable!()
        };
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"OSQW").unwrap();
        conn.write_all(&99u16.to_le_bytes()).unwrap();
    });
    let mut poisoned_err = None;
    for _ in 0..100 {
        if let Err(e) = driver.step() {
            poisoned_err = Some(e.to_string());
            break;
        }
    }
    client.join().unwrap();
    let err = poisoned_err.expect("driver never surfaced the protocol error");
    assert!(err.contains("wire version 99"), "{err}");
    // The driver is now poisoned: stepping and checkpointing both refuse.
    let err = driver.step().unwrap_err().to_string();
    assert!(err.contains("poisoned"), "{err}");
    let err = driver.driver_mut().checkpoint().unwrap_err().to_string();
    assert!(err.contains("poisoned"), "{err}");
}

/// Worker threads write a trickling socket's rows in the step that polled
/// them. The next poll waits for the peer (`poll_wait`, 2 s by default),
/// and a round must not be left unwritten across a wait.
#[test]
fn a_trickling_net_source_is_written_as_it_arrives_on_two_workers() {
    let config = DriverConfig {
        workers: 2,
        ..DriverConfig::default()
    };
    let tap = HistoryTap::new();
    let mut session = tapped_session(&tap, config);
    let script = format!(
        "CREATE SOURCE Bid {BID_COLUMNS} WITH (connector = 'net', addr = 'tcp:127.0.0.1:0');
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out SELECT auction, price FROM Bid EMIT STREAM;"
    );
    let mut driver = assemble(&mut session, &script);
    let addr = session.take_handle::<NetAddr>("Bid").unwrap();
    let (go, wait) = std::sync::mpsc::channel::<()>();
    let producer = std::thread::spawn(move || -> Result<()> {
        let mut publisher =
            NetPublisher::new(addr, 0, vec!["Bid".to_string()], NetConfig::default());
        for frame in 0..3i64 {
            for i in frame * 5..frame * 5 + 5 {
                publisher.insert(0, Ts(i), row!(i % 7, i, Ts(i)))?;
            }
            publisher.flush()?;
            // Silent until the consumer has looked at its sink.
            wait.recv().unwrap();
        }
        publisher.finish()
    });

    for frame in 1..=3u64 {
        while driver.metrics().events_in < frame * 5 {
            driver.step().unwrap();
        }
        // All of the frame but its last row, which sits at the clock.
        assert_eq!(tap.rows().len() as u64, frame * 5 - 1);
        go.send(()).unwrap();
    }
    let metrics = driver.run().unwrap();
    producer.join().unwrap().unwrap();
    assert_eq!(metrics.events_out, 15);
    assert_eq!(tap.rows().len(), 15);
}

/// Checkpoints of a net-fed pipeline record per-partition offsets, and a
/// fresh (never-streamed) net source accepts the seek restore performs.
#[test]
fn net_checkpoint_offsets_roundtrip_into_fresh_source() {
    let mut fresh = PartitionedNetSource::bind(
        NetAddr::tcp("127.0.0.1:0"),
        vec!["Bid".to_string()],
        3,
        NetConfig::default(),
    )
    .unwrap();
    // Restore calls seek on every partition, including offset 0.
    fresh.seek(0, 0).unwrap();
    fresh.seek(1, 512).unwrap();
    fresh.seek(2, 1024).unwrap();
    assert_eq!(fresh.offset(0), 0);
    assert_eq!(fresh.offset(1), 512);
    assert_eq!(fresh.offset(2), 1024);
}
