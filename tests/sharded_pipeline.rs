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

mod common;

use std::io::Write;

use proptest::prelude::*;

use onesql::connect::{
    default_registry, PartitionedNexmarkSource, PartitionedSource, SourceBatch, SourceEvent,
    SourceStatus,
};
use onesql::core::connect::replay::Replay;
use onesql::{
    ChannelPublisher, DriverConfig, HistoryTap, PipelineCheckpoint, Session, SqlPipeline,
    StreamBuilder,
};
use onesql_nexmark::model::{Auction, Bid, Person};
use onesql_types::{row, DataType, Result, Row, Schema, Ts};

use common::{assemble, Bespoke};

/// A session under `config` whose sink family `tap` records into the
/// returned tap, so tests can compare the exact changelog two pipelines
/// observed.
fn tapped_session(
    mut registry: onesql::ConnectorRegistry,
    config: DriverConfig,
) -> (Session, HistoryTap) {
    let tap = HistoryTap::new();
    registry.register_sink("tap", tap.clone());
    let mut session = Session::new(registry);
    session.set_driver_config(config);
    (session, tap)
}

/// The NEXMark source `seeded(7, events, NEXMARK_PARTS)` as DDL.
fn nexmark_source(events: u64) -> String {
    format!(
        "CREATE PARTITIONED SOURCE nex WITH (connector = 'nexmark', seed = 7, \
         events = {events}, partitions = {NEXMARK_PARTS});"
    )
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

fn nexmark_sharded(sql: &str, workers: usize, fixed_batch: bool) -> (HistoryTap, SqlPipeline) {
    // Fixed: predictable round sizes, so tests can aim kills between rounds.
    let config = if fixed_batch {
        common::fixed_batch(DriverConfig::default().batch_size, workers)
    } else {
        sharded(workers)
    };
    let (mut session, tap) = tapped_session(default_registry(), config);
    let script = format!(
        "{}
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out {sql};",
        nexmark_source(NEXMARK_EVENTS)
    );
    (tap, assemble(&mut session, &script))
}

/// Run uninterrupted; then run again, kill after ~`split` events, restore
/// a fresh pipeline over fresh sources from the checkpoint, and require
/// the concatenated sink output to match exactly.
fn assert_exactly_once(sql: &str, workers: usize, split: u64, fixed_batch: bool) {
    let reference = {
        let (rows, mut driver) = nexmark_sharded(sql, workers, fixed_batch);
        driver.run().unwrap();
        let reference = rows.rows();
        assert!(!reference.is_empty(), "query produced no output");
        reference
    };

    let (rows, mut victim) = nexmark_sharded(sql, workers, fixed_batch);
    let checkpoint = checkpoint_at(&mut victim, split);
    let mut observed = rows.rows();
    drop(victim); // the crash: worker threads reaped, all live state lost

    let (resumed_rows, mut resumed) = nexmark_sharded(sql, workers, fixed_batch);
    resumed.driver_mut().restore(&checkpoint).unwrap();
    assert_eq!(resumed.metrics().events_in, checkpoint_events(&checkpoint));
    resumed.run().unwrap();
    observed.extend(resumed_rows.rows());

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

/// Step `pipeline` until it ingested `split` events, then checkpoint it.
fn checkpoint_at(pipeline: &mut SqlPipeline, split: u64) -> PipelineCheckpoint {
    while !pipeline.driver_mut().is_finished() && pipeline.events_in() < split {
        pipeline.step().unwrap();
    }
    assert!(
        !pipeline.driver_mut().is_finished(),
        "split {split} did not interrupt the stream; lower it"
    );
    pipeline.driver_mut().checkpoint().unwrap()
}

fn checkpoint_events(cp: &PipelineCheckpoint) -> u64 {
    cp.offsets.iter().flatten().sum()
}

/// Fold a sink-observed changelog back into the table it encodes (inserts
/// minus undos), sorted — the TVR duality, applied black-box.
fn snapshot_of(rows: &[onesql::core::StreamRow]) -> Vec<Row> {
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
        rows.rows()
    };

    let (rows, mut first) = nexmark_sharded(GATED_SQL, 2, true);
    let cp1 = checkpoint_at(&mut first, 1_500);
    let mut observed = rows.rows();
    drop(first);

    let (rows, mut second) = nexmark_sharded(GATED_SQL, 2, true);
    second.driver_mut().restore(&cp1).unwrap();
    let cp2 = checkpoint_at(&mut second, 4_000);
    observed.extend(rows.rows());
    drop(second);

    let (rows, mut third) = nexmark_sharded(GATED_SQL, 2, true);
    third.driver_mut().restore(&cp2).unwrap();
    third.run().unwrap();
    observed.extend(rows.rows());

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

/// The three NEXMark streams, as the `nexmark` connector declares them.
fn nexmark_streams() -> Vec<(&'static str, Schema)> {
    vec![
        ("Person", Person::schema()),
        ("Auction", Auction::schema()),
        ("Bid", Bid::schema()),
    ]
}

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
    use onesql::HistoryEvent;
    use onesql_state::Codec;
    let config = common::fixed_batch(16, 2);
    // The checker's two-worker scenarios: the whole suite.
    for spec in onesql_nexmark::queries::full_stack() {
        let sql = format!("{} EMIT STREAM", spec.sql);
        let build = |saturated: bool| {
            let source = move || -> Box<dyn PartitionedSource> {
                let source = PartitionedNexmarkSource::seeded(7, 3_000, NEXMARK_PARTS);
                if saturated {
                    Box::new(source)
                } else {
                    Box::new(NeverSaturated(source))
                }
            };
            let mut registry = default_registry();
            registry.register_source("nexmark_of", Bespoke::new(nexmark_streams(), source));
            let (mut session, tap) = tapped_session(registry, config);
            let script = format!(
                "CREATE SOURCE nex WITH (connector = 'nexmark_of');
                 CREATE SINK out WITH (connector = 'tap');
                 INSERT INTO out {sql};"
            );
            (assemble(&mut session, &script), tap)
        };
        let (mut deferring, deferred_history) = build(true);
        let (mut immediate, history) = build(false);
        let mut owed_rows = 0;
        for step in 1.. {
            immediate.step().unwrap();
            deferring.step().unwrap();
            if immediate.driver_mut().is_finished() {
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
                let ours = deferring.driver_mut().checkpoint().unwrap();
                let theirs = immediate.driver_mut().checkpoint().unwrap();
                assert_eq!(ours.to_bytes(), theirs.to_bytes(), "{}", spec.name);
                assert_eq!(deferred_history.events(), history.events(), "{}", spec.name);
            }
        }
        assert!(deferring.driver_mut().is_finished());
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
    for (sql, reads_only_bid) in [(Q1, true), (Q5_HOT_ITEMS, true), (Q8, false)] {
        let sql = format!("{sql} EMIT STREAM");
        for workers in [1, 2] {
            let run = |vectorize: bool| {
                let config = DriverConfig {
                    vectorize,
                    ..sharded(workers)
                };
                let (mut session, rows) = tapped_session(default_registry(), config);
                let script = format!(
                    "{}
                     CREATE SINK out WITH (connector = 'tap');
                     INSERT INTO out {sql};",
                    nexmark_source(NEXMARK_EVENTS)
                );
                let metrics = assemble(&mut session, &script).run().unwrap();
                (rows.rows(), metrics)
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
    for workers in [1usize, 2] {
        let config = common::fixed_batch(8, workers);
        let sql = "SELECT auction, price FROM Bid EMIT STREAM";
        let (publishers, mut driver, rows) = channel_pipeline(1, sql, config);
        let publish = |range: std::ops::Range<i64>| {
            for i in range {
                publishers[0].insert(Ts(i), row!(i % 3, i, Ts(i))).unwrap();
            }
        };
        // Fewer than a batch, then exactly a batch: drained both times,
        // so all but the row at the clock is out when `step` returns.
        publish(0..5);
        assert_eq!(driver.step().unwrap(), 5);
        assert_eq!(rows.rows().len(), 4, "{workers} workers");
        publish(5..13);
        assert_eq!(driver.step().unwrap(), 8);
        assert_eq!(rows.rows().len(), 12, "{workers} workers");
        // A backlog: threads leave the round for the next step, whose
        // poll is handed the rest of the queue at once.
        publish(13..25);
        assert_eq!(driver.step().unwrap(), 8);
        let written = if workers == 1 { 20 } else { 12 };
        assert_eq!(rows.rows().len(), written, "{workers} workers");
        assert_eq!(driver.step().unwrap(), 4);
        assert_eq!(rows.rows().len(), 24, "{workers} workers");
        drop(publishers);
        driver.run().unwrap();
        assert_eq!(rows.rows().len(), 25, "{workers} workers");
    }
}

// ---------------------------------------------------------------------------
// Sharded runs agree with unsharded execution, through real connectors.
// ---------------------------------------------------------------------------

fn bid_schema() -> Schema {
    StreamBuilder::new()
        .column("auction", DataType::Int)
        .column("price", DataType::Int)
        .event_time_column("bidtime")
        .build()
}

/// The `Bid` stream's columns, as a `CREATE SOURCE` declares them.
const BID_COLUMNS: &str = "(auction INT, price INT, bidtime TIMESTAMP, WATERMARK FOR bidtime)";

/// `sql` under `config` over a `Bid` channel source of `partitions`
/// partitions: its publishers, the pipeline and what its sink heard.
fn channel_pipeline(
    partitions: usize,
    sql: &str,
    config: DriverConfig,
) -> (Vec<ChannelPublisher>, SqlPipeline, HistoryTap) {
    let (mut session, tap) = tapped_session(default_registry(), config);
    let script = format!(
        "CREATE PARTITIONED SOURCE Bid {BID_COLUMNS}
           WITH (connector = 'channel', partitions = {partitions}, capacity = 64);
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out {sql};"
    );
    let pipeline = assemble(&mut session, &script);
    let publishers = session.take_handle::<Vec<ChannelPublisher>>("Bid").unwrap();
    (publishers, pipeline, tap)
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
    let (mut session, _) = tapped_session(default_registry(), sharded(3));
    let paths: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
    let script = format!(
        "CREATE PARTITIONED SOURCE Bid {BID_COLUMNS}
           WITH (connector = 'file', path = '{}');
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out {sql};",
        paths.join(",")
    );
    let mut driver = assemble(&mut session, &script);
    let metrics = driver.run().unwrap();
    assert_eq!(metrics.events_in, all_rows.len() as u64);
    assert!(metrics.input_watermark.is_final());

    // The same rows replayed into a one-worker pipeline.
    let mut direct = Replay::new([("Bid", bid_schema())]);
    for (i, (auction, price, ts)) in all_rows.iter().enumerate() {
        direct.insert(Ts(i as i64), "Bid", row!(*auction, *price, *ts));
    }
    let mut expected = direct.run(sql).unwrap().0.table().unwrap();
    expected.sort();
    assert_eq!(driver.table().unwrap(), expected);
}

#[test]
fn table_honours_order_by_and_limit_for_every_worker_count() {
    // ORDER BY / LIMIT are properties of the whole result, applied once
    // to the merged table — not once per worker and then re-sorted away.
    let sql = "SELECT auction, price FROM Bid ORDER BY price DESC LIMIT 2";
    let bids = vec![(1i64, 30i64), (2, 10), (3, 40), (4, 20)];
    let expected = vec![row!(3i64, 40i64), row!(1i64, 30i64)];
    for workers in [1usize, 2] {
        let mut driver = scripted_pipeline(std::slice::from_ref(&bids), workers, sql).1;
        driver.run().unwrap();
        assert_eq!(driver.table().unwrap(), expected, "{workers} workers");
    }
}

#[test]
fn sharded_channels_fan_in_from_threads() {
    let sql = "SELECT auction, price FROM Bid WHERE price >= 0 EMIT STREAM";
    let (publishers, mut driver, rows) = channel_pipeline(4, sql, sharded(2));

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
    assert_eq!(rows.rows().len(), 200);
    assert!(metrics.output_watermark.is_final());

    // Channel shards are not replayable: a fresh instance refuses to seek.
    let (_pubs, mut fresh) = onesql::connect::sharded_channel("Bid", 4, 64);
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
    let sql = "SELECT wend, auction, SUM(price) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
             GROUP BY wend, auction EMIT AFTER WATERMARK";
    let (publishers, mut driver, rows) = channel_pipeline(2, sql, sharded(2));

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
    assert!(
        !driver.driver_mut().is_finished(),
        "producers are still connected"
    );
    let observed = rows.rows();
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
    assert_eq!(rows.rows().len(), 2, "no duplicates at finish");
}

#[test]
fn stalled_ptime_busy_rounds_still_release_results() {
    // Rounds that ingest events whose ptimes never advance (a live source
    // with a frozen clock) must not withhold watermark-released results:
    // the clock nudge applies to any non-advancing round, not just idle
    // ones.
    let sql = "SELECT wend, auction, SUM(price) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
             GROUP BY wend, auction EMIT AFTER WATERMARK";
    let (publishers, mut driver, rows) = channel_pipeline(1, sql, DriverConfig::default());

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
    assert!(!driver.driver_mut().is_finished());
    let observed = rows.rows();
    assert_eq!(
        snapshot_of(&observed),
        vec![row!(Ts::hm(8, 10), 1i64, 5i64)],
        "busy-but-stalled rounds must release the closed window"
    );
}

#[test]
fn sources_cannot_attach_mid_run() {
    // The driver sizes its per-stream watermark trackers at attach time,
    // so a pipeline's sources are fixed when its INSERT assembles it: a
    // source created for the same stream afterwards joins only later
    // pipelines.
    let mut bids = Replay::new([("Bid", bid_schema())]);
    bids.insert(Ts(0), "Bid", row!(1i64, 1i64, Ts(0))).insert(
        Ts(1),
        "Bid",
        row!(2i64, 2i64, Ts(1)),
    );
    let mut registry = default_registry();
    registry.register_source("replay", bids);
    let (mut session, _) = tapped_session(registry, DriverConfig::default());
    let script = "CREATE SOURCE bids WITH (connector = 'replay');
                  CREATE SINK out WITH (connector = 'tap');
                  INSERT INTO out SELECT auction FROM Bid;";
    let mut running = assemble(&mut session, script);
    running.step().unwrap();
    session
        .execute("CREATE SOURCE again WITH (connector = 'replay')")
        .unwrap();
    assert_eq!(running.run().unwrap().sources.len(), 1);
    let mut later = assemble(&mut session, "INSERT INTO out SELECT auction FROM Bid;");
    assert_eq!(later.run().unwrap().sources.len(), 2);
}

#[test]
fn adaptive_batches_grow_while_query_keeps_up() {
    let (mut session, _) = tapped_session(default_registry(), sharded(2));
    let script = format!(
        "CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 3, events = 20000, partitions = 4);
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out {STREAMING_SQL};"
    );
    let mut pipeline = assemble(&mut session, &script);
    let driver = pipeline.driver_mut();
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

/// `sql` over [`ScriptedPartitions`] of `scripts`, in tiny rounds, and
/// what its sink heard.
fn scripted_pipeline(
    scripts: &[Vec<(i64, i64)>],
    workers: usize,
    sql: &str,
) -> (HistoryTap, SqlPipeline) {
    // Tiny rounds: many interleavings, many split points.
    let config = common::fixed_batch(3, workers);
    let scripts = scripts.to_vec();
    let build = move || -> Box<dyn PartitionedSource> {
        Box::new(ScriptedPartitions::new(scripts.clone()))
    };
    let mut registry = default_registry();
    registry.register_source("scripted", Bespoke::new(vec![("Bid", bid_schema())], build));
    let (mut session, tap) = tapped_session(registry, config);
    let script = format!(
        "CREATE SOURCE scripted WITH (connector = 'scripted');
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out {sql};"
    );
    (tap, assemble(&mut session, &script))
}

const AGG: &str = "SELECT auction, COUNT(*), SUM(price) FROM Bid GROUP BY auction";

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
        let (reference_rows, mut reference) = scripted_pipeline(&scripts, workers, AGG);
        reference.run().unwrap();
        let reference_out = reference_rows.rows();
        let reference_table = reference.table().unwrap();

        let (rows, mut victim) = scripted_pipeline(&scripts, workers, AGG);
        for _ in 0..split_rounds {
            if victim.driver_mut().is_finished() {
                break;
            }
            victim.step().unwrap();
        }
        if victim.driver_mut().is_finished() {
            // Too little data to interrupt: the full run must still match.
            prop_assert_eq!(rows.rows(), reference_out);
            return;
        }
        let checkpoint = victim.driver_mut().checkpoint().unwrap();
        let mut observed = rows.rows();
        drop(victim);

        let (resumed_rows, mut resumed) = scripted_pipeline(&scripts, workers, AGG);
        resumed.driver_mut().restore(&checkpoint).unwrap();
        resumed.run().unwrap();
        observed.extend(resumed_rows.rows());

        prop_assert_eq!(&observed, &reference_out);
        // The observable changelog folds back to the uninterrupted final
        // table: undo/insert accounting survived the crash too.
        prop_assert_eq!(snapshot_of(&observed), reference_table);
    }

    /// Sharded execution is transparent: any worker count yields the same
    /// final table as one worker, for any partition interleaving.
    #[test]
    fn worker_count_is_transparent(scripts in arb_scripts(), workers in 2usize..5) {
        let (_, mut single) = scripted_pipeline(&scripts, 1, AGG);
        single.run().unwrap();
        let (_, mut sharded) = scripted_pipeline(&scripts, workers, AGG);
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
    let run = |sql: &str, workers| {
        let (mut session, _) = tapped_session(default_registry(), sharded(workers));
        let script = format!(
            "{}
             CREATE SINK out WITH (connector = 'tap');
             INSERT INTO out {sql};",
            nexmark_source(20_000)
        );
        let mut driver = assemble(&mut session, &script);
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
    let cp = checkpoint_at(&mut driver, 1_000);
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
    let sql = "SELECT auction, price FROM Bid";
    let (publishers, mut driver, _) = channel_pipeline(2, sql, DriverConfig::default());
    publishers[0]
        .insert(Ts(0), row!(1i64, 1i64, Ts(0)))
        .unwrap();
    publishers[1]
        .insert(Ts(1), row!(2i64, 2i64, Ts(1)))
        .unwrap();
    driver.step().unwrap();
    let cp = driver.driver_mut().checkpoint().unwrap();
    assert_eq!(checkpoint_events(&cp), 2);
    drop(driver);

    // A fresh channel source cannot replay the two consumed events.
    let (_pubs, mut fresh, _) = channel_pipeline(2, sql, DriverConfig::default());
    let err = fresh.driver_mut().restore(&cp).unwrap_err().to_string();
    assert!(err.contains("not replayable"), "{err}");
}
