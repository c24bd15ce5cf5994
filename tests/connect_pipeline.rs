//! Integration tests for the connector subsystem: file / channel / NEXMark
//! sources through real SQL into sinks, driven by the one-worker
//! `PipelineDriver`.

use std::io::Write;
use std::sync::Arc;

use proptest::prelude::*;

use onesql::connect::{
    channel, channel_sink, ChangelogSink, CsvFileSink, CsvFileSource, CsvSinkMode, DriverConfig,
    FileSourceConfig, JsonLinesSink, JsonLinesSource, NexmarkSource, PipelineDriver, Sink,
    SinkEvent, Source, SourceBatch, SourceEvent, SourceStatus,
};
use onesql::core::{Engine, StreamBuilder};
use onesql_nexmark::queries;
use onesql_time::Watermark;
use onesql_tvr::Change;
use onesql_types::{row, DataType, Duration, Schema, Ts};

fn bid_engine() -> Engine {
    let mut e = Engine::new();
    e.register_stream(
        "Bid",
        StreamBuilder::new()
            .event_time_column("bidtime")
            .column("price", DataType::Int)
            .column("item", DataType::String),
    );
    e
}

fn bid_schema() -> Schema {
    StreamBuilder::new()
        .event_time_column("bidtime")
        .column("price", DataType::Int)
        .column("item", DataType::String)
        .build()
}

/// A scratch directory unique to the calling test.
fn scratch(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("onesql_connect_tests").join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const WINDOWED_SQL: &str = "SELECT wend, SUM(price) FROM Tumble(data => \
     TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
     GROUP BY wend EMIT AFTER WATERMARK";

/// The paper's §4 bid timeline, with event times deliberately out of
/// processing-time order.
fn paper_bids() -> Vec<(Ts, i64, &'static str)> {
    vec![
        (Ts::hm(8, 7), 2, "A"),
        (Ts::hm(8, 11), 3, "B"),
        (Ts::hm(8, 5), 4, "C"), // late within the first window
        (Ts::hm(8, 9), 5, "D"),
        (Ts::hm(8, 13), 1, "E"),
        (Ts::hm(8, 24), 2, "F"),
    ]
}

/// file source → watermark-gated SQL → file sink → file source roundtrip.
#[test]
fn csv_roundtrip_with_watermark_gated_emit() {
    let dir = scratch("csv_roundtrip");
    let input = dir.join("bids.csv");
    let output = dir.join("windows.csv");

    let mut f = std::fs::File::create(&input).unwrap();
    for (ts, price, item) in paper_bids() {
        writeln!(f, "{},{price},{item}", ts.to_clock_string()).unwrap();
    }
    drop(f);

    // Events are up to 6 minutes out of order; lateness must cover it for
    // the watermark gate to hold windows until truly complete.
    let engine = bid_engine();
    let mut pipeline = PipelineDriver::new(&engine, WINDOWED_SQL, DriverConfig::default()).unwrap();
    pipeline
        .attach_source(Box::new(
            CsvFileSource::new(
                &input,
                "Bid",
                Arc::new(bid_schema()),
                FileSourceConfig {
                    lateness: Duration::from_minutes(6),
                    has_header: false,
                },
            )
            .unwrap(),
        ))
        .unwrap();
    pipeline
        .attach_sink(Box::new(
            CsvFileSink::headerless(&output, CsvSinkMode::Appends).unwrap(),
        ))
        .unwrap();
    let metrics = pipeline.run().unwrap().clone();
    assert_eq!(metrics.events_in, 6);
    assert!(metrics.watermarks_in >= 1, "{metrics:?}");
    assert!(pipeline.is_finished());

    // The sink file holds exactly the final windows; read it back through
    // a source into a fresh pass-through query (the full roundtrip).
    let out_schema = Arc::new(
        StreamBuilder::new()
            .event_time_column("wend")
            .column("total", DataType::Int)
            .build(),
    );
    let mut reader = Engine::new();
    reader.register_stream_schema("Windows", (*out_schema).clone());
    let mut readback = PipelineDriver::new(
        &reader,
        "SELECT wend, total FROM Windows",
        DriverConfig::default(),
    )
    .unwrap();
    readback
        .attach_source(Box::new(
            CsvFileSource::new(&output, "Windows", out_schema, FileSourceConfig::default())
                .unwrap(),
        ))
        .unwrap();
    readback.run().unwrap();
    assert_eq!(
        readback.table().unwrap(),
        vec![
            row!(Ts::hm(8, 10), 11i64), // 2 + 4 + 5
            row!(Ts::hm(8, 20), 4i64),  // 3 + 1
            row!(Ts::hm(8, 30), 2i64),
        ]
    );

    // The same answer the in-process API produces.
    let engine = bid_engine();
    let mut direct = engine.execute(WINDOWED_SQL).unwrap();
    for (i, (ts, price, item)) in paper_bids().into_iter().enumerate() {
        direct
            .insert("Bid", Ts(i as i64), row!(ts, price, item))
            .unwrap();
    }
    direct.finish(Ts(100)).unwrap();
    assert_eq!(direct.table().unwrap(), readback.table().unwrap());
}

/// A columnar poll (the CSV source at one worker) into a query that cannot
/// take the stream as columns goes in per row, and one that does not read
/// the stream only moves the clock: the sink sees what the row oracle
/// writes, and no round counts as vectorized.
#[test]
fn a_columnar_poll_the_query_cannot_batch_goes_in_per_row() {
    let dir = scratch("columnar_poll_fallback");
    let input = dir.join("bids.csv");
    let mut f = std::fs::File::create(&input).unwrap();
    for i in 0..200i64 {
        let bidtime = Ts::hm(8, 0) + Duration::from_minutes(i / 4);
        writeln!(f, "{},{},item{}", bidtime.to_clock_string(), i % 13, i % 5).unwrap();
    }
    drop(f);
    let mut engine = bid_engine();
    engine.register_stream(
        "Person",
        StreamBuilder::new()
            .column("id", DataType::Int)
            .column("name", DataType::String),
    );
    let timers = "SELECT bidtime, price FROM Bid EMIT STREAM AFTER DELAY INTERVAL '5' MINUTES";
    let self_join = "SELECT MaxBid.wend, Bid.price, Bid.item FROM Bid, \
         (SELECT MAX(T.price) maxPrice, T.wend wend FROM Tumble(data => TABLE(Bid), \
          timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) T GROUP BY T.wend) MaxBid \
         WHERE Bid.price = MaxBid.maxPrice AND Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE \
         AND Bid.bidtime < MaxBid.wend EMIT STREAM";
    let unread = "SELECT id, name FROM Person EMIT STREAM";
    for (sql, reads) in [(timers, true), (self_join, true), (unread, false)] {
        let run = |vectorize: bool| {
            let config = DriverConfig {
                batch_size: 16,
                adaptive: None,
                vectorize,
                ..DriverConfig::default()
            };
            let mut pipeline = PipelineDriver::new(&engine, sql, config).unwrap();
            let source = CsvFileSource::new(
                &input,
                "Bid",
                Arc::new(bid_schema()),
                FileSourceConfig {
                    lateness: Duration::from_minutes(1),
                    has_header: false,
                },
            );
            pipeline.attach_source(Box::new(source.unwrap())).unwrap();
            let (rendered, sink) = ChangelogSink::in_memory();
            pipeline.attach_sink(Box::new(sink)).unwrap();
            let metrics = pipeline.run().unwrap().clone();
            let rendered = rendered.lock().unwrap().clone();
            (rendered, metrics)
        };
        let (rows, metrics) = run(true);
        let (oracle_rows, oracle_metrics) = run(false);
        assert_eq!(rows, oracle_rows, "{sql}");
        assert_eq!(rows.lines().count() > 1, reads, "{sql}: {rows}");
        assert_eq!(metrics.events_in, 200);
        assert_eq!(metrics.rounds, oracle_metrics.rounds, "{sql}");
        assert_eq!(metrics.vectorized_rounds, 0, "{sql}");
        // A stream the plan does not read is no feed at all.
        assert_eq!(metrics.fallback_rounds > 0, reads, "{sql}");
        assert_eq!(metrics.fallback_rounds, oracle_metrics.fallback_rounds);
    }
}

/// The JSON-lines connectors round-trip typed rows the same way.
#[test]
fn jsonl_roundtrip() {
    let dir = scratch("jsonl_roundtrip");
    let input = dir.join("bids.jsonl");
    let output = dir.join("out.jsonl");

    let mut f = std::fs::File::create(&input).unwrap();
    for (ts, price, item) in paper_bids() {
        writeln!(
            f,
            r#"{{"bidtime": {}, "price": {price}, "item": "{item}"}}"#,
            ts.millis()
        )
        .unwrap();
    }
    drop(f);

    let engine = bid_engine();
    let mut pipeline = PipelineDriver::new(
        &engine,
        "SELECT item, price FROM Bid WHERE price >= 3",
        DriverConfig::default(),
    )
    .unwrap();
    pipeline
        .attach_source(Box::new(
            JsonLinesSource::new(
                &input,
                "Bid",
                Arc::new(bid_schema()),
                FileSourceConfig {
                    lateness: Duration::from_minutes(6),
                    has_header: false,
                },
            )
            .unwrap(),
        ))
        .unwrap();
    pipeline
        .attach_sink(Box::new(
            JsonLinesSink::new(&output, CsvSinkMode::Changelog).unwrap(),
        ))
        .unwrap();
    let metrics = pipeline.run().unwrap();
    assert_eq!(metrics.events_in, 6);
    assert_eq!(metrics.events_out, 3); // prices 3, 4, 5 pass the filter

    let text = std::fs::read_to_string(&output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"item\":"), "{}", lines[0]);
    assert!(lines.iter().all(|l| l.contains("\"undo\":false")), "{text}");
}

/// NEXMark source → query → changelog sink, all through the engine API.
#[test]
fn nexmark_to_changelog_sink_end_to_end() {
    let mut engine = Engine::new();
    onesql::connect::register_nexmark_streams(&mut engine);
    let (rendered, sink) = ChangelogSink::in_memory();

    let mut pipeline = PipelineDriver::new(&engine, queries::Q7, DriverConfig::default()).unwrap();
    pipeline
        .attach_source(Box::new(NexmarkSource::seeded(42, 2_000)))
        .unwrap();
    pipeline
        .attach_sink(Box::new(sink.with_watermarks()))
        .unwrap();
    let metrics = pipeline.run().unwrap();

    assert_eq!(metrics.events_in, 2_000);
    assert!(metrics.events_out > 0, "{metrics:?}");
    assert!(metrics.output_watermark.is_final());
    assert_eq!(metrics.sources.len(), 1);
    assert_eq!(metrics.sources[0].events, 2_000);

    let text = rendered.lock().unwrap();
    assert!(
        text.starts_with("-- changelog of (wstart, wend"),
        "{}",
        &text[..80]
    );
    assert!(text.contains("ver="), "changelog lines carry versions");
    // Q7's self-join revises maxima as higher bids land: both inserts and
    // retractions must appear.
    assert!(text.contains("\n"), "{text}");
    assert!(text.lines().any(|l| l.contains("  +  ")), "{text}");
}

/// Two publisher threads fan into one channel source; results match the
/// single-writer in-process run.
#[test]
fn channel_fan_in_across_threads() {
    let engine = bid_engine();
    let (publisher, source) = channel("Bid", 128);
    let (sink, events) = channel_sink(1024);
    let mut pipeline = PipelineDriver::new(
        &engine,
        "SELECT item, price FROM Bid WHERE price > 0",
        DriverConfig::default(),
    )
    .unwrap();
    pipeline.attach_source(Box::new(source)).unwrap();
    pipeline.attach_sink(Box::new(sink)).unwrap();

    let writers: Vec<_> = [0i64, 1]
        .into_iter()
        .map(|half| {
            let publisher = publisher.clone();
            std::thread::spawn(move || {
                for i in 0..50i64 {
                    let n = half * 50 + i;
                    publisher
                        .insert(Ts(n), row!(Ts(n), n + 1, format!("item{n}")))
                        .unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    drop(publisher); // all producers gone -> source finishes
    let metrics = pipeline.run().unwrap();
    assert_eq!(metrics.events_in, 100);
    assert_eq!(metrics.events_out, 100);

    let mut rows = 0usize;
    let mut flushed = false;
    while let Ok(event) = events.try_recv() {
        match event {
            SinkEvent::Rows(r) => rows += r.len(),
            SinkEvent::Watermark(_) => {}
            SinkEvent::Flushed => flushed = true,
        }
    }
    assert_eq!(rows, 100);
    assert!(flushed);
}

/// Attach-time validation: unknown streams and tables are rejected.
#[test]
fn attach_source_validates_streams() {
    let mut engine = bid_engine();
    engine
        .register_table(
            "Category",
            StreamBuilder::new().column("id", DataType::Int),
            vec![row!(1i64)],
        )
        .unwrap();
    let mut pipeline =
        PipelineDriver::new(&engine, "SELECT item FROM Bid", DriverConfig::default()).unwrap();
    for (stream, refusal) in [
        ("Nope", "targets unregistered stream 'Nope'"),
        ("Category", "which is a table, not a stream"),
    ] {
        let (_publisher, source) = channel(stream, 4);
        let err = pipeline.attach_source(Box::new(source)).unwrap_err();
        assert!(err.to_string().contains(refusal), "{err}");
    }
    assert!(pipeline.step().is_err(), "no sources");
    // A refused attach costs nothing: no offset moved, nothing is
    // poisoned, and the pipeline runs over the source it does accept.
    let (publisher, source) = channel("Bid", 4);
    pipeline.attach_source(Box::new(source)).unwrap();
    publisher.finish().unwrap();
    assert!(pipeline.run().unwrap().output_watermark.is_final());
}

// ---------------------------------------------------------------------------
// A failed round or finish poisons a non-partitioned pipeline too.
// ---------------------------------------------------------------------------

/// A sink that fails on demand.
struct FailingSink {
    fail_write: bool,
    fail_flush: bool,
}

impl Sink for FailingSink {
    fn name(&self) -> &str {
        "failing"
    }
    fn write(&mut self, _rows: &[onesql::core::StreamRow]) -> onesql_types::Result<()> {
        if self.fail_write {
            return Err(onesql_types::Error::exec("sink write refused"));
        }
        Ok(())
    }
    fn flush(&mut self) -> onesql_types::Result<()> {
        if self.fail_flush {
            return Err(onesql_types::Error::exec("sink flush refused"));
        }
        Ok(())
    }
}

/// Six buffered bids into `sink`; the returned publisher keeps the
/// channel (and so the pipeline) open.
fn pipeline_into(sink: FailingSink) -> (onesql::ChannelPublisher, onesql::PipelineDriver) {
    let engine = bid_engine();
    let (publisher, source) = channel("Bid", 16);
    for (i, (ts, price, item)) in paper_bids().into_iter().enumerate() {
        publisher
            .insert(Ts(i as i64), row!(ts, price, item))
            .unwrap();
    }
    let mut pipeline = PipelineDriver::new(
        &engine,
        "SELECT item, price FROM Bid EMIT STREAM",
        DriverConfig::default(),
    )
    .unwrap();
    pipeline.attach_source(Box::new(source)).unwrap();
    pipeline.attach_sink(Box::new(sink)).unwrap();
    (publisher, pipeline)
}

#[test]
fn failed_finish_on_a_plain_pipeline_poisons_instead_of_finishing() {
    let (_open, mut pipeline) = pipeline_into(FailingSink {
        fail_write: false,
        fail_flush: true,
    });
    assert_eq!(pipeline.step().unwrap(), 6);
    let err = pipeline.finish().unwrap_err().to_string();
    assert!(err.contains("sink flush refused"), "{err}");
    assert!(
        !pipeline.is_finished(),
        "a half-flushed pipeline must not report finished"
    );
    for err in [
        pipeline.finish().unwrap_err(),
        pipeline.step().unwrap_err(),
        pipeline.checkpoint().unwrap_err(),
    ] {
        assert!(err.to_string().contains("poisoned"), "{err}");
    }
}

#[test]
fn failed_step_on_a_plain_pipeline_cannot_be_stepped_past() {
    let (_open, mut pipeline) = pipeline_into(FailingSink {
        fail_write: true,
        fail_flush: false,
    });
    // The round polled all six events, then the sink refused their rows.
    let err = pipeline.step().unwrap_err().to_string();
    assert!(err.contains("sink write refused"), "{err}");
    assert_eq!(pipeline.metrics().events_in, 6, "the source was polled");
    // Stepping on would silently drop those six events; a checkpoint
    // would record offsets past events no sink ever saw.
    for err in [
        pipeline.step().unwrap_err(),
        pipeline.checkpoint().unwrap_err(),
    ] {
        assert!(err.to_string().contains("poisoned"), "{err}");
    }
}

// ---------------------------------------------------------------------------
// Watermark monotonicity under arbitrary source interleavings.
// ---------------------------------------------------------------------------

/// A source that replays a script of batches, one per poll.
struct ScriptedSource {
    name: String,
    streams: Vec<String>,
    script: std::collections::VecDeque<SourceBatch>,
}

impl ScriptedSource {
    fn new(name: &str, stream: &str, script: Vec<SourceBatch>) -> ScriptedSource {
        ScriptedSource {
            name: name.to_string(),
            streams: vec![stream.to_string()],
            script: script.into(),
        }
    }
}

impl Source for ScriptedSource {
    fn name(&self) -> &str {
        &self.name
    }
    fn streams(&self) -> &[String] {
        &self.streams
    }
    fn poll_batch(&mut self, _max: usize) -> onesql_types::Result<SourceBatch> {
        Ok(self
            .script
            .pop_front()
            .unwrap_or_else(|| SourceBatch::empty(SourceStatus::Finished)))
    }
}

/// One scripted step of one source: optionally an event, optionally a
/// watermark assertion (which may even regress — the driver must absorb
/// it).
fn arb_script() -> impl Strategy<Value = Vec<Vec<(Option<i64>, Option<i64>)>>> {
    prop::collection::vec(
        prop::collection::vec(
            (prop::option::of(0i64..1_000), prop::option::of(0i64..1_000)),
            0..12,
        ),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// However many sources there are and however their event/watermark
    /// batches interleave, the watermark the sinks observe only ever
    /// advances, and ends final.
    #[test]
    fn driver_watermarks_are_monotone(scripts in arb_script()) {
        let mut engine = Engine::new();
        engine.register_stream(
            "S",
            StreamBuilder::new().event_time_column("ts").column("v", DataType::Int),
        );
        let config = DriverConfig {
            batch_size: 4,
            ..DriverConfig::default()
        };
        let mut pipeline =
            PipelineDriver::new(&engine, "SELECT ts, v FROM S EMIT STREAM", config).unwrap();
        for (i, script) in scripts.iter().enumerate() {
            let batches: Vec<SourceBatch> = script
                .iter()
                .map(|(event, wm)| {
                    let mut batch = SourceBatch::empty(SourceStatus::Ready);
                    if let Some(ts) = event {
                        batch.events.push(SourceEvent {
                            stream: 0,
                            ptime: Ts(*ts),
                            change: Change::insert(row!(Ts(*ts), *ts)),
                        });
                    }
                    batch.watermark = wm.map(Ts);
                    batch
                })
                .collect();
            pipeline
                .attach_source(Box::new(ScriptedSource::new(
                    &format!("scripted-{i}"),
                    "S",
                    batches,
                )))
                .unwrap();
        }
        let (sink, events) = channel_sink(1_000_000);
        pipeline.attach_sink(Box::new(sink)).unwrap();
        let metrics = pipeline.run().unwrap().clone();

        let mut last = Watermark::MIN;
        let mut watermarks = 0usize;
        while let Ok(event) = events.try_recv() {
            if let SinkEvent::Watermark(wm) = event {
                prop_assert!(wm > last, "sink watermark regressed: {wm} after {last}");
                last = wm;
                watermarks += 1;
            }
        }
        prop_assert!(watermarks >= 1, "finish must deliver the final watermark");
        prop_assert!(last.is_final());
        prop_assert!(metrics.output_watermark.is_final());
        // Every scripted event made it in.
        let expected: u64 = scripts
            .iter()
            .flatten()
            .filter(|(e, _)| e.is_some())
            .count() as u64;
        prop_assert_eq!(metrics.events_in, expected);
    }
}

/// The driver's input watermark is the min over live sources.
#[test]
fn input_watermark_is_min_over_sources() {
    let mut engine = Engine::new();
    engine.register_stream(
        "S",
        StreamBuilder::new()
            .event_time_column("ts")
            .column("v", DataType::Int),
    );
    let fast = vec![SourceBatch {
        events: vec![],
        watermark: Some(Ts(500)),
        status: SourceStatus::Ready,
        ..SourceBatch::default()
    }];
    let slow = vec![SourceBatch {
        events: vec![],
        watermark: Some(Ts(100)),
        status: SourceStatus::Ready,
        ..SourceBatch::default()
    }];
    let mut pipeline =
        PipelineDriver::new(&engine, "SELECT ts, v FROM S", DriverConfig::default()).unwrap();
    pipeline
        .attach_source(Box::new(ScriptedSource::new("fast", "S", fast)))
        .unwrap();
    pipeline
        .attach_source(Box::new(ScriptedSource::new("slow", "S", slow)))
        .unwrap();
    pipeline.step().unwrap();
    assert_eq!(pipeline.metrics().input_watermark, Watermark(Ts(100)));
    // Both scripts exhausted -> next steps finish the pipeline.
    pipeline.run().unwrap();
    assert!(pipeline.is_finished());
    assert!(pipeline.metrics().input_watermark.is_final());
}
