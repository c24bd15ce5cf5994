//! The sharded pipeline runtime, black-box: partitioned sources in,
//! hash-sharded workers across, deterministic changelogs out — and
//! exactly-once resume from a [`PipelineCheckpoint`].
//!
//! The resume tests take the stance of Huang et al.'s snapshot-isolation
//! checker: don't inspect internals, compare *observable* changelogs. A
//! pipeline is exactly-once iff killing it mid-stream and resuming from
//! its checkpoint yields a sink-observed changelog identical to an
//! uninterrupted run — no duplicates, no gaps, same order, same `ver`
//! numbering.

use std::io::Write;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use onesql::connect::{
    register_nexmark_streams, sharded_channel, PartitionedFileSource, PartitionedNexmarkSource,
    PartitionedSource, SourceBatch, SourceEvent, SourceStatus,
};
use onesql::core::StreamRow;
use onesql::{DriverConfig, Engine, PipelineDriver, Sink, StreamBuilder};
use onesql_types::{row, DataType, Result, Row, Ts};

/// A sink that appends every output row to shared memory, so tests can
/// compare the exact changelog two pipelines observed.
struct CollectingSink {
    rows: Arc<Mutex<Vec<StreamRow>>>,
}

fn collecting_sink() -> (Arc<Mutex<Vec<StreamRow>>>, CollectingSink) {
    let rows = Arc::new(Mutex::new(Vec::new()));
    (rows.clone(), CollectingSink { rows })
}

impl Sink for CollectingSink {
    fn name(&self) -> &str {
        "collect"
    }
    fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
        self.rows.lock().unwrap().extend_from_slice(rows);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Kill mid-stream, restore, replay: the observable changelog must be
// byte-identical to an uninterrupted run.
// ---------------------------------------------------------------------------

const NEXMARK_EVENTS: u64 = 6_000;
const NEXMARK_PARTS: usize = 4;

/// Windowed aggregate, watermark-gated: output materializes in bursts as
/// windows close, so held-back state at the kill point is nontrivial.
const GATED_SQL: &str = "SELECT wend, auction, COUNT(*), SUM(price) \
     FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime), \
     dur => INTERVAL '1' MINUTE) GROUP BY wend, auction EMIT AFTER WATERMARK";

/// Per-event output: every ingested bid appears in the changelog, so any
/// duplicate or lost event after resume is immediately visible.
const STREAMING_SQL: &str = "SELECT auction, price FROM Bid WHERE price > 100 EMIT STREAM";

fn sharded(workers: usize) -> DriverConfig {
    DriverConfig {
        workers,
        ..DriverConfig::default()
    }
}

fn nexmark_sharded(
    sql: &str,
    workers: usize,
    fixed_batch: bool,
) -> (Arc<Mutex<Vec<StreamRow>>>, PipelineDriver) {
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    let (rows, sink) = collecting_sink();
    let mut config = sharded(workers);
    if fixed_batch {
        // Predictable round sizes, so tests can aim kills between rounds.
        config.adaptive = None;
    }
    let mut driver = PipelineDriver::new(&engine, sql, config).unwrap();
    driver
        .attach_partitioned_source(Box::new(PartitionedNexmarkSource::seeded(
            7,
            NEXMARK_EVENTS,
            NEXMARK_PARTS,
        )))
        .unwrap();
    driver.attach_sink(Box::new(sink)).unwrap();
    (rows, driver)
}

/// Run uninterrupted; then run again, kill after ~`split` events, restore
/// a fresh pipeline over fresh sources from the checkpoint, and require
/// the concatenated sink output to match exactly.
fn assert_exactly_once(sql: &str, workers: usize, split: u64, fixed_batch: bool) {
    let reference = {
        let (rows, mut driver) = nexmark_sharded(sql, workers, fixed_batch);
        driver.run().unwrap();
        let reference = rows.lock().unwrap().clone();
        assert!(!reference.is_empty(), "query produced no output");
        reference
    };

    let (rows, mut victim) = nexmark_sharded(sql, workers, fixed_batch);
    while !victim.is_finished() && victim.events_in() < split {
        victim.step().unwrap();
    }
    assert!(
        !victim.is_finished(),
        "split {split} did not interrupt the stream; lower it"
    );
    let checkpoint = victim.checkpoint().unwrap();
    let mut observed = rows.lock().unwrap().clone();
    drop(victim); // the crash: worker threads reaped, all live state lost

    let (resumed_rows, mut resumed) = nexmark_sharded(sql, workers, fixed_batch);
    resumed.restore(&checkpoint).unwrap();
    assert_eq!(resumed.metrics().events_in, checkpoint_events(&checkpoint));
    resumed.run().unwrap();
    observed.extend(resumed_rows.lock().unwrap().iter().cloned());

    assert_eq!(
        observed.len(),
        reference.len(),
        "resumed changelog length diverged (workers={workers}, split={split})"
    );
    assert_eq!(
        observed, reference,
        "resumed changelog diverged (workers={workers}, split={split})"
    );
}

fn checkpoint_events(cp: &onesql::PipelineCheckpoint) -> u64 {
    cp.offsets.iter().flatten().sum()
}

/// Fold a sink-observed changelog back into the table it encodes (inserts
/// minus undos), sorted — the TVR duality, applied black-box.
fn snapshot_of(rows: &[StreamRow]) -> Vec<Row> {
    let mut counts: std::collections::BTreeMap<Row, i64> = std::collections::BTreeMap::new();
    for sr in rows {
        *counts.entry(sr.row.clone()).or_default() += if sr.undo { -1 } else { 1 };
    }
    counts
        .into_iter()
        .flat_map(|(row, n)| (0..n.max(0)).map(move |_| row.clone()))
        .collect()
}

#[test]
fn kill_restore_gated_aggregate_is_exactly_once() {
    for workers in [1, 3] {
        for split in [1_000, 3_500] {
            assert_exactly_once(GATED_SQL, workers, split, true);
        }
    }
}

#[test]
fn kill_restore_streaming_filter_is_exactly_once() {
    for workers in [2, 4] {
        // Adaptive batching on: the checkpointed controller size must make
        // the resumed run poll exactly as the uninterrupted one.
        assert_exactly_once(STREAMING_SQL, workers, 2_000, false);
    }
}

#[test]
fn double_kill_is_still_exactly_once() {
    // Crash, resume, crash again, resume again: checkpoints compose.
    let reference = {
        let (rows, mut driver) = nexmark_sharded(GATED_SQL, 2, true);
        driver.run().unwrap();
        let r = rows.lock().unwrap().clone();
        r
    };

    let (rows, mut first) = nexmark_sharded(GATED_SQL, 2, true);
    while !first.is_finished() && first.events_in() < 1_500 {
        first.step().unwrap();
    }
    let cp1 = first.checkpoint().unwrap();
    let mut observed = rows.lock().unwrap().clone();
    drop(first);

    let (rows, mut second) = nexmark_sharded(GATED_SQL, 2, true);
    second.restore(&cp1).unwrap();
    while !second.is_finished() && second.events_in() < 4_000 {
        second.step().unwrap();
    }
    assert!(!second.is_finished());
    let cp2 = second.checkpoint().unwrap();
    observed.extend(rows.lock().unwrap().iter().cloned());
    drop(second);

    let (rows, mut third) = nexmark_sharded(GATED_SQL, 2, true);
    third.restore(&cp2).unwrap();
    third.run().unwrap();
    observed.extend(rows.lock().unwrap().iter().cloned());

    assert_eq!(observed, reference);
}

// ---------------------------------------------------------------------------
// Worker threads over a source that is never idle emit round N−1 while
// they compute round N. That moves *when* the sinks hear of a round and
// nothing else: every sink callback, in order, and every checkpoint, byte
// for byte, is what a driver that flushes each round at once produces.
// ---------------------------------------------------------------------------

/// `inner` with `Ready` relabelled `Idle`. A round depends on the label
/// only to decide whether its flush may wait (`Finished` and an empty
/// round are what end and pace a pipeline), so a driver over this polls,
/// routes and stamps exactly as over `inner` but flushes every round at
/// once — the one behaviour there was before rounds could be deferred.
struct NeverSaturated(PartitionedNexmarkSource);

impl PartitionedSource for NeverSaturated {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn streams(&self) -> &[String] {
        self.0.streams()
    }
    fn partitions(&self) -> usize {
        self.0.partitions()
    }
    fn poll_partition(&mut self, partition: usize, max_events: usize) -> Result<SourceBatch> {
        let mut batch = self.0.poll_partition(partition, max_events)?;
        if batch.status == SourceStatus::Ready {
            batch.status = SourceStatus::Idle;
        }
        Ok(batch)
    }
    fn offset(&self, partition: usize) -> u64 {
        self.0.offset(partition)
    }
}

#[test]
fn deferred_rounds_reach_the_sinks_as_immediate_ones_do() {
    use onesql::{HistoryEvent, HistoryTap};
    use onesql_state::Codec;
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    let config = DriverConfig {
        batch_size: 16,
        adaptive: None,
        ..sharded(2)
    };
    // The checker's two-worker scenarios: the whole suite.
    for spec in onesql_nexmark::queries::full_stack() {
        let sql = format!("{} EMIT STREAM", spec.sql);
        let build = |saturated: bool| {
            let source = PartitionedNexmarkSource::seeded(7, 3_000, NEXMARK_PARTS);
            let source: Box<dyn PartitionedSource> = if saturated {
                Box::new(source)
            } else {
                Box::new(NeverSaturated(source))
            };
            let mut driver = PipelineDriver::new(&engine, &sql, config).unwrap();
            driver.attach_partitioned_source(source).unwrap();
            let tap = HistoryTap::new();
            driver.attach_sink(Box::new(tap.clone())).unwrap();
            (driver, tap)
        };
        let (mut deferring, deferred_history) = build(true);
        let (mut immediate, history) = build(false);
        let mut owed_rows = 0;
        for step in 1.. {
            immediate.step().unwrap();
            deferring.step().unwrap();
            if immediate.is_finished() {
                break;
            }
            assert_eq!(deferring.clock(), immediate.clock(), "{}", spec.name);
            let emitted = |events: Vec<HistoryEvent>| {
                let is_row = |e: &&HistoryEvent| matches!(e, HistoryEvent::Emitted(_));
                events.iter().filter(is_row).count()
            };
            owed_rows += emitted(history.events()) - emitted(deferred_history.events());
            // A checkpoint releases what is owed before it snapshots.
            if step % 7 == 0 {
                let ours = deferring.checkpoint().unwrap();
                let theirs = immediate.checkpoint().unwrap();
                assert_eq!(ours.to_bytes(), theirs.to_bytes(), "{}", spec.name);
                assert_eq!(deferred_history.events(), history.events(), "{}", spec.name);
            }
        }
        assert!(deferring.is_finished());
        // One worker runs inline and flushes every round.
        let deferred = owed_rows > 0 || deferring.workers() == 1;
        assert!(deferred, "{}: no round was ever deferred", spec.name);
        assert_eq!(deferred_history.events(), history.events(), "{}", spec.name);
        assert_eq!(history.events().last(), Some(&HistoryEvent::Finished));
    }
}

/// The nexmark source interleaves Person and Auction rows with the Bids.
/// A query that reads only Bid feeds every round as columnar runs — the
/// other streams' events end none — and writes what the row path writes;
/// one that joins the other two still ends a run at each change between
/// them.
#[test]
fn streams_a_query_does_not_read_cost_it_no_columnar_round() {
    use onesql_nexmark::queries::{Q1, Q5_HOT_ITEMS, Q8};
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    for (sql, reads_only_bid) in [(Q1, true), (Q5_HOT_ITEMS, true), (Q8, false)] {
        let sql = format!("{sql} EMIT STREAM");
        for workers in [1, 2] {
            let run = |vectorize: bool| {
                let config = DriverConfig {
                    vectorize,
                    ..sharded(workers)
                };
                let mut driver = PipelineDriver::new(&engine, &sql, config).unwrap();
                let source = PartitionedNexmarkSource::seeded(7, NEXMARK_EVENTS, NEXMARK_PARTS);
                driver.attach_partitioned_source(Box::new(source)).unwrap();
                let (rows, sink) = collecting_sink();
                driver.attach_sink(Box::new(sink)).unwrap();
                let metrics = driver.run().unwrap().clone();
                let rows = rows.lock().unwrap().clone();
                (rows, metrics)
            };
            let (rows, metrics) = run(true);
            let (oracle_rows, oracle_metrics) = run(false);
            assert!(!rows.is_empty(), "{sql}");
            assert_eq!(rows, oracle_rows, "{sql} at {workers} workers");
            assert_eq!(metrics.rounds, oracle_metrics.rounds);
            assert_eq!(oracle_metrics.vectorized_rounds, 0);
            if reads_only_bid {
                assert_eq!(metrics.fallback_rounds, 0, "{sql}");
                assert_eq!(metrics.vectorized_rounds, metrics.rounds, "{sql}");
            }
        }
    }
}

/// A channel that a poll drained answers `Idle` with its events, so a
/// caller who publishes, steps and looks at the sink finds the rows there
/// for every worker count; only a backlog longer than the batch is
/// deferred, across a poll that returns it without waiting.
#[test]
fn a_drained_channel_is_written_in_the_step_that_polled_it() {
    let engine = bid_engine();
    for workers in [1usize, 2] {
        let config = DriverConfig {
            batch_size: 8,
            adaptive: None,
            ..sharded(workers)
        };
        let (publishers, source) = sharded_channel("Bid", 1, 64);
        let sql = "SELECT auction, price FROM Bid EMIT STREAM";
        let mut driver = PipelineDriver::new(&engine, sql, config).unwrap();
        driver.attach_partitioned_source(Box::new(source)).unwrap();
        let (rows, sink) = collecting_sink();
        driver.attach_sink(Box::new(sink)).unwrap();
        let publish = |range: std::ops::Range<i64>| {
            for i in range {
                publishers[0].insert(Ts(i), row!(i % 3, i, Ts(i))).unwrap();
            }
        };
        // Fewer than a batch, then exactly a batch: drained both times,
        // so all but the row at the clock is out when `step` returns.
        publish(0..5);
        assert_eq!(driver.step().unwrap(), 5);
        assert_eq!(rows.lock().unwrap().len(), 4, "{workers} workers");
        publish(5..13);
        assert_eq!(driver.step().unwrap(), 8);
        assert_eq!(rows.lock().unwrap().len(), 12, "{workers} workers");
        // A backlog: threads leave the round for the next step, whose
        // poll is handed the rest of the queue at once.
        publish(13..25);
        assert_eq!(driver.step().unwrap(), 8);
        let written = if workers == 1 { 20 } else { 12 };
        assert_eq!(rows.lock().unwrap().len(), written, "{workers} workers");
        assert_eq!(driver.step().unwrap(), 4);
        assert_eq!(rows.lock().unwrap().len(), 24, "{workers} workers");
        drop(publishers);
        driver.run().unwrap();
        assert_eq!(rows.lock().unwrap().len(), 25, "{workers} workers");
    }
}

// ---------------------------------------------------------------------------
// Sharded runs agree with unsharded execution, through real connectors.
// ---------------------------------------------------------------------------

fn bid_engine() -> Engine {
    let mut e = Engine::new();
    e.register_stream(
        "Bid",
        StreamBuilder::new()
            .column("auction", DataType::Int)
            .column("price", DataType::Int)
            .event_time_column("bidtime"),
    );
    e
}

#[test]
fn partitioned_files_match_direct_execution() {
    let dir = std::env::temp_dir().join("onesql_sharded_tests/files");
    std::fs::create_dir_all(&dir).unwrap();
    // Three partition files, interleaved keys, deliberately skewed sizes.
    let mut all_rows: Vec<(i64, i64, Ts)> = Vec::new();
    let mut paths = Vec::new();
    for part in 0..3i64 {
        let path = dir.join(format!("bids-{part}.csv"));
        let mut f = std::fs::File::create(&path).unwrap();
        for i in 0..(40 + part * 25) {
            let (auction, price, ts) = (i % 7, i + part, Ts(i * 50 + part));
            writeln!(f, "{auction},{price},{}", ts.millis()).unwrap();
            all_rows.push((auction, price, ts));
        }
        paths.push(path);
    }

    let sql = "SELECT auction, COUNT(*), SUM(price) FROM Bid GROUP BY auction";
    let schema = Arc::new(
        StreamBuilder::new()
            .column("auction", DataType::Int)
            .column("price", DataType::Int)
            .event_time_column("bidtime")
            .build(),
    );
    let engine = bid_engine();
    let mut driver = PipelineDriver::new(&engine, sql, sharded(3)).unwrap();
    driver
        .attach_partitioned_source(Box::new(
            PartitionedFileSource::csv(&paths, "Bid", schema, Default::default()).unwrap(),
        ))
        .unwrap();
    let metrics = driver.run().unwrap();
    assert_eq!(metrics.events_in, all_rows.len() as u64);
    assert!(metrics.input_watermark.is_final());

    // The same rows fed directly into one in-process query.
    let engine = bid_engine();
    let mut direct = engine.execute(sql).unwrap();
    for (i, (auction, price, ts)) in all_rows.iter().enumerate() {
        direct
            .insert("Bid", Ts(i as i64), row!(*auction, *price, *ts))
            .unwrap();
    }
    direct.finish(Ts::MAX).unwrap();
    let mut expected = direct.table().unwrap();
    expected.sort();
    assert_eq!(driver.table().unwrap(), expected);
}

#[test]
fn table_honours_order_by_and_limit_for_every_worker_count() {
    // ORDER BY / LIMIT are properties of the whole result, applied once
    // to the merged table — not once per worker and then re-sorted away.
    let sql = "SELECT auction, price FROM Bid ORDER BY price DESC LIMIT 2";
    let bids = vec![(1i64, 30i64), (2, 10), (3, 40), (4, 20)];
    let mut direct = bid_engine().execute(sql).unwrap();
    for (i, (auction, price)) in bids.iter().enumerate() {
        let row = row!(*auction, *price, Ts(*price));
        direct.insert("Bid", Ts(i as i64), row).unwrap();
    }
    let expected = direct.table().unwrap();
    assert_eq!(expected, vec![row!(3i64, 40i64), row!(1i64, 30i64)]);
    for workers in [1usize, 2] {
        let mut driver = PipelineDriver::new(&bid_engine(), sql, sharded(workers)).unwrap();
        let source = ScriptedPartitions::new(vec![bids.clone()]);
        driver.attach_partitioned_source(Box::new(source)).unwrap();
        driver.run().unwrap();
        assert_eq!(driver.table().unwrap(), expected, "{workers} workers");
    }
}

#[test]
fn sharded_channels_fan_in_from_threads() {
    let engine = bid_engine();
    let (publishers, source) = sharded_channel("Bid", 4, 64);
    let (rows, sink) = collecting_sink();
    let sql = "SELECT auction, price FROM Bid WHERE price >= 0 EMIT STREAM";
    let mut driver = PipelineDriver::new(&engine, sql, sharded(2)).unwrap();
    driver.attach_partitioned_source(Box::new(source)).unwrap();
    driver.attach_sink(Box::new(sink)).unwrap();

    let handles: Vec<_> = publishers
        .into_iter()
        .enumerate()
        .map(|(shard, publisher)| {
            std::thread::spawn(move || {
                for i in 0..50i64 {
                    let n = shard as i64 * 50 + i;
                    publisher.insert(Ts(n), row!(n % 9, n, Ts(n))).unwrap();
                }
                publisher.finish().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let metrics = driver.run().unwrap();
    assert_eq!(metrics.events_in, 200);
    assert_eq!(metrics.events_out, 200);
    assert_eq!(rows.lock().unwrap().len(), 200);
    assert!(metrics.output_watermark.is_final());

    // Channel shards are not replayable: a fresh instance refuses to seek.
    let (_pubs, mut fresh) = sharded_channel("Bid", 4, 64);
    assert!(fresh.seek(0, 10).is_err());
    assert!(
        fresh.seek(0, 0).is_ok(),
        "seek to current position is a no-op"
    );
}

#[test]
fn idle_rounds_release_watermarked_results_without_finish() {
    // A live pipeline (producers still connected) must deliver results a
    // watermark already released, even though no further events arrive to
    // advance the merge clock past them.
    let engine = bid_engine();
    let (publishers, source) = sharded_channel("Bid", 2, 32);
    let (rows, sink) = collecting_sink();
    let sql = "SELECT wend, auction, SUM(price) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
             GROUP BY wend, auction EMIT AFTER WATERMARK";
    let mut driver = PipelineDriver::new(&engine, sql, sharded(2)).unwrap();
    driver.attach_partitioned_source(Box::new(source)).unwrap();
    driver.attach_sink(Box::new(sink)).unwrap();

    publishers[0]
        .insert(Ts::hm(8, 1), row!(1i64, 5i64, Ts::hm(8, 1)))
        .unwrap();
    publishers[1]
        .insert(Ts::hm(8, 2), row!(2i64, 7i64, Ts::hm(8, 2)))
        .unwrap();
    // Both shards assert completeness past the window end.
    publishers[0].watermark(Ts::hm(8, 15)).unwrap();
    publishers[1].watermark(Ts::hm(8, 15)).unwrap();

    // Round 1 ingests and materializes; the idle round after it must
    // release the held-back window result.
    driver.step().unwrap();
    driver.step().unwrap();
    assert!(!driver.is_finished(), "producers are still connected");
    let observed = rows.lock().unwrap().clone();
    assert_eq!(
        snapshot_of(&observed),
        vec![
            row!(Ts::hm(8, 10), 1i64, 5i64),
            row!(Ts::hm(8, 10), 2i64, 7i64),
        ],
        "window [8:00, 8:10) must have flushed"
    );

    for p in &publishers {
        p.finish().unwrap();
    }
    driver.run().unwrap();
    assert_eq!(rows.lock().unwrap().len(), 2, "no duplicates at finish");
}

#[test]
fn stalled_ptime_busy_rounds_still_release_results() {
    // Rounds that ingest events whose ptimes never advance (a live source
    // with a frozen clock) must not withhold watermark-released results:
    // the clock nudge applies to any non-advancing round, not just idle
    // ones.
    let engine = bid_engine();
    let (publishers, source) = sharded_channel("Bid", 1, 32);
    let (rows, sink) = collecting_sink();
    let sql = "SELECT wend, auction, SUM(price) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
             GROUP BY wend, auction EMIT AFTER WATERMARK";
    let mut driver = PipelineDriver::new(&engine, sql, DriverConfig::default()).unwrap();
    driver.attach_partitioned_source(Box::new(source)).unwrap();
    driver.attach_sink(Box::new(sink)).unwrap();

    publishers[0]
        .insert(Ts::hm(8, 1), row!(1i64, 5i64, Ts::hm(8, 1)))
        .unwrap();
    publishers[0].watermark(Ts::hm(8, 15)).unwrap();
    driver.step().unwrap();
    // The window result materialized at ptime == clock and is held back.
    // Keep the pipeline busy with events at the same frozen ptime (late,
    // so they are dropped by the gate, but the round still ingests).
    publishers[0]
        .insert(Ts::hm(8, 1), row!(1i64, 9i64, Ts::hm(8, 1)))
        .unwrap();
    driver.step().unwrap();
    assert!(!driver.is_finished());
    let observed = rows.lock().unwrap().clone();
    assert_eq!(
        snapshot_of(&observed),
        vec![row!(Ts::hm(8, 10), 1i64, 5i64)],
        "busy-but-stalled rounds must release the closed window"
    );
}

#[test]
fn sources_cannot_attach_mid_run() {
    // Both drivers size their per-stream watermark trackers at attach
    // time; attaching after the first step must be rejected, not corrupt
    // watermark delivery.
    let engine = bid_engine();
    let (pubs, source) = sharded_channel("Bid", 1, 8);
    let mut sharded =
        PipelineDriver::new(&engine, "SELECT auction FROM Bid", DriverConfig::default()).unwrap();
    sharded.attach_partitioned_source(Box::new(source)).unwrap();
    sharded.step().unwrap();
    let (_p2, late) = sharded_channel("Bid", 1, 8);
    assert!(sharded.attach_partitioned_source(Box::new(late)).is_err());
    drop(pubs);

    let engine = bid_engine();
    let (pubs, source) = onesql::connect::channel("Bid", 8);
    let mut plain =
        PipelineDriver::new(&engine, "SELECT auction FROM Bid", DriverConfig::default()).unwrap();
    plain.attach_source(Box::new(source)).unwrap();
    plain.step().unwrap();
    let (_p2, late) = onesql::connect::channel("Bid", 8);
    assert!(plain.attach_source(Box::new(late)).is_err());
    drop(pubs);
}

#[test]
fn adaptive_batches_grow_while_query_keeps_up() {
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    let mut driver = PipelineDriver::new(&engine, STREAMING_SQL, sharded(2)).unwrap();
    driver
        .attach_partitioned_source(Box::new(PartitionedNexmarkSource::seeded(3, 20_000, 4)))
        .unwrap();
    let initial = driver.current_batch_size();
    let mut grew = false;
    while !driver.is_finished() {
        driver.step().unwrap();
        grew |= driver.current_batch_size() > initial;
    }
    assert!(
        grew,
        "a cheap filter keeps watermark lag low; batches should have grown \
         past the initial {initial}"
    );
}

// ---------------------------------------------------------------------------
// Exactly-once resume under *arbitrary* partition interleavings.
// ---------------------------------------------------------------------------

/// A replayable partitioned source driven by per-partition scripts: each
/// partition emits its `(key, ts)` events in order with an ascending
/// watermark. Fresh instances replay identically, so the default
/// seek-by-replay applies.
#[derive(Clone)]
struct ScriptedPartitions {
    name: String,
    streams: Vec<String>,
    scripts: Vec<Vec<(i64, i64)>>,
    cursors: Vec<usize>,
}

impl ScriptedPartitions {
    fn new(scripts: Vec<Vec<(i64, i64)>>) -> ScriptedPartitions {
        ScriptedPartitions {
            name: "scripted".to_string(),
            streams: vec!["Bid".to_string()],
            cursors: vec![0; scripts.len()],
            scripts,
        }
    }
}

impl PartitionedSource for ScriptedPartitions {
    fn name(&self) -> &str {
        &self.name
    }
    fn streams(&self) -> &[String] {
        &self.streams
    }
    fn partitions(&self) -> usize {
        self.scripts.len()
    }
    fn poll_partition(&mut self, partition: usize, max_events: usize) -> Result<SourceBatch> {
        let script = &self.scripts[partition];
        let cursor = self.cursors[partition];
        let take = max_events.min(script.len() - cursor);
        let mut batch = SourceBatch::empty(SourceStatus::Ready);
        for (key, ts) in &script[cursor..cursor + take] {
            batch.events.push(SourceEvent {
                stream: 0,
                ptime: Ts(*ts),
                change: onesql_tvr::Change::insert(row!(*key, *ts, Ts(*ts))),
            });
            batch.watermark = Some(batch.watermark.map_or(Ts(*ts), |w: Ts| w.max(Ts(*ts))));
        }
        self.cursors[partition] += take;
        if self.cursors[partition] == script.len() {
            batch.status = SourceStatus::Finished;
        }
        Ok(batch)
    }
    fn offset(&self, partition: usize) -> u64 {
        self.cursors[partition] as u64
    }
}

fn scripted_driver(
    scripts: &[Vec<(i64, i64)>],
    workers: usize,
) -> (Arc<Mutex<Vec<StreamRow>>>, PipelineDriver) {
    let engine = bid_engine();
    let (rows, sink) = collecting_sink();
    let config = DriverConfig {
        workers,
        batch_size: 3, // tiny rounds: many interleavings, many split points
        adaptive: None,
        ..DriverConfig::default()
    };
    let sql = "SELECT auction, COUNT(*), SUM(price) FROM Bid GROUP BY auction";
    let mut driver = PipelineDriver::new(&engine, sql, config).unwrap();
    driver
        .attach_partitioned_source(Box::new(ScriptedPartitions::new(scripts.to_vec())))
        .unwrap();
    driver.attach_sink(Box::new(sink)).unwrap();
    (rows, driver)
}

fn arb_scripts() -> impl Strategy<Value = Vec<Vec<(i64, i64)>>> {
    prop::collection::vec(prop::collection::vec((0i64..8, 0i64..500), 1..16), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Whatever the partition scripts, worker count, and kill point, the
    /// resumed changelog concatenated onto the pre-kill changelog equals
    /// the uninterrupted run's — and the final tables agree.
    #[test]
    fn resume_is_exact_under_arbitrary_interleavings(
        scripts in arb_scripts(),
        workers in 1usize..4,
        split_rounds in 1usize..5,
    ) {
        let (reference_rows, mut reference) = scripted_driver(&scripts, workers);
        reference.run().unwrap();
        let reference_out = reference_rows.lock().unwrap().clone();
        let reference_table = reference.table().unwrap();

        let (rows, mut victim) = scripted_driver(&scripts, workers);
        for _ in 0..split_rounds {
            if victim.is_finished() {
                break;
            }
            victim.step().unwrap();
        }
        if victim.is_finished() {
            // Too little data to interrupt: the full run must still match.
            prop_assert_eq!(rows.lock().unwrap().clone(), reference_out);
            return;
        }
        let checkpoint = victim.checkpoint().unwrap();
        let mut observed = rows.lock().unwrap().clone();
        drop(victim);

        let (resumed_rows, mut resumed) = scripted_driver(&scripts, workers);
        resumed.restore(&checkpoint).unwrap();
        resumed.run().unwrap();
        observed.extend(resumed_rows.lock().unwrap().iter().cloned());

        prop_assert_eq!(&observed, &reference_out);
        // The observable changelog folds back to the uninterrupted final
        // table: undo/insert accounting survived the crash too.
        prop_assert_eq!(snapshot_of(&observed), reference_table);
    }

    /// Sharded execution is transparent: any worker count yields the same
    /// final table as one worker, for any partition interleaving.
    #[test]
    fn worker_count_is_transparent(scripts in arb_scripts(), workers in 2usize..5) {
        let (_, mut single) = scripted_driver(&scripts, 1);
        single.run().unwrap();
        let (_, mut sharded) = scripted_driver(&scripts, workers);
        sharded.run().unwrap();
        prop_assert_eq!(single.table().unwrap(), sharded.table().unwrap());
    }
}

/// Grouping off column 0: the plan routes `Bid` by `bidder`, so every
/// worker count gives the one-worker table (routing by column 0 would
/// split each bidder's count over the workers). No key shards a global
/// aggregate: it runs on one worker whatever the count.
#[test]
fn groups_off_column_0_are_never_split() {
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    let run = |sql: &str, workers| {
        let source = PartitionedNexmarkSource::seeded(7, 20_000, NEXMARK_PARTS);
        let mut driver = PipelineDriver::new(&engine, sql, sharded(workers)).unwrap();
        driver.attach_partitioned_source(Box::new(source)).unwrap();
        driver.run().unwrap();
        (driver.workers(), driver.table().unwrap())
    };
    let by_bidder = "SELECT bidder, COUNT(*) FROM Bid GROUP BY bidder";
    let (_, table) = run(by_bidder, 1);
    assert_eq!(table.len(), 394);
    for workers in [2, 4] {
        assert_eq!(run(by_bidder, workers), (workers, table.clone()));
    }
    let (workers, total) = run("SELECT COUNT(*) FROM Bid", 2);
    assert_eq!((workers, total.len()), (1, 1));
}

// ---------------------------------------------------------------------------
// Checkpoint surface.
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_records_per_partition_offsets() {
    let (_, mut driver) = nexmark_sharded(STREAMING_SQL, 2, true);
    while !driver.is_finished() && driver.events_in() < 1_000 {
        driver.step().unwrap();
    }
    let cp = driver.checkpoint().unwrap();
    assert_eq!(cp.workers.len(), 2);
    assert_eq!(cp.offsets.len(), 1, "one source");
    assert_eq!(cp.offsets[0].len(), NEXMARK_PARTS);
    assert!(cp.offsets[0].iter().all(|&o| o > 0), "{:?}", cp.offsets);
    assert_eq!(checkpoint_events(&cp), driver.metrics().events_in);
    // Checkpointing is non-destructive: the pipeline finishes normally.
    driver.run().unwrap();
    assert_eq!(driver.metrics().events_in, NEXMARK_EVENTS);
}

#[test]
fn restore_rejects_non_replayable_source() {
    let engine = bid_engine();
    let (publishers, source) = sharded_channel("Bid", 2, 16);
    let mut driver = PipelineDriver::new(
        &engine,
        "SELECT auction, price FROM Bid",
        DriverConfig::default(),
    )
    .unwrap();
    driver.attach_partitioned_source(Box::new(source)).unwrap();
    publishers[0]
        .insert(Ts(0), row!(1i64, 1i64, Ts(0)))
        .unwrap();
    publishers[1]
        .insert(Ts(1), row!(2i64, 2i64, Ts(1)))
        .unwrap();
    driver.step().unwrap();
    let cp = driver.checkpoint().unwrap();
    assert_eq!(checkpoint_events(&cp), 2);
    drop(driver);

    // A fresh channel source cannot replay the two consumed events.
    let engine = bid_engine();
    let (_pubs, source) = sharded_channel("Bid", 2, 16);
    let mut fresh = PipelineDriver::new(
        &engine,
        "SELECT auction, price FROM Bid",
        DriverConfig::default(),
    )
    .unwrap();
    fresh.attach_partitioned_source(Box::new(source)).unwrap();
    let err = fresh.restore(&cp).unwrap_err().to_string();
    assert!(err.contains("not replayable"), "{err}");
}
