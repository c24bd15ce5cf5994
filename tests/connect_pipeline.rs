//! Integration tests for the connector subsystem: file / channel / NEXMark
//! sources through real SQL into sinks, each pipeline assembled by a
//! script on one worker.

mod common;

use std::io::Write;
use std::sync::{Arc, Mutex};

use crossbeam::channel::Receiver;
use proptest::prelude::*;

use onesql::connect::{
    channel, default_registry, session, CsvFileSource, Exports, FileSourceConfig, OptionBag,
    PartitionedVec, Sink, SinkConnector, SinkEvent, SinkSpec, Source, SourceBatch,
};
use onesql::core::connect::replay::Replay;
use onesql::core::StreamBuilder;
use onesql::{ChannelPublisher, DriverConfig, Session, SqlPipeline};
use onesql_nexmark::queries;
use onesql_time::Watermark;
use onesql_types::{row, DataType, Duration, Schema, Ts};

use common::{assemble, Bespoke};

fn bid_schema() -> Schema {
    StreamBuilder::new()
        .event_time_column("bidtime")
        .column("price", DataType::Int)
        .column("item", DataType::String)
        .build()
}

/// The `Bid` stream's columns, as a `CREATE SOURCE` declares them.
const BID_COLUMNS: &str = "(bidtime TIMESTAMP, price INT, item STRING, WATERMARK FOR bidtime)";

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
    let mut session = session();
    let script = format!(
        "CREATE SOURCE Bid {BID_COLUMNS}
           WITH (connector = 'file', path = '{}', lateness_ms = 360000);
         CREATE SINK windows
           WITH (connector = 'file', path = '{}', header = FALSE, mode = 'appends');
         INSERT INTO windows {WINDOWED_SQL};",
        input.display(),
        output.display()
    );
    let mut pipeline = assemble(&mut session, &script);
    let metrics = pipeline.run().unwrap();
    assert_eq!(metrics.events_in, 6);
    assert!(metrics.watermarks_in >= 1, "{metrics:?}");
    assert!(pipeline.driver_mut().is_finished());

    // The sink file holds exactly the final windows; read it back through
    // a source into a fresh pass-through query (the full roundtrip).
    let script = format!(
        "CREATE SOURCE Windows (wend TIMESTAMP, total INT, WATERMARK FOR wend)
           WITH (connector = 'file', path = '{}');
         CREATE SINK out WITH (connector = 'changelog');
         INSERT INTO out SELECT wend, total FROM Windows;",
        output.display()
    );
    let mut readback = assemble(&mut onesql::connect::session(), &script);
    readback.run().unwrap();
    assert_eq!(
        readback.table().unwrap(),
        vec![
            row!(Ts::hm(8, 10), 11i64), // 2 + 4 + 5
            row!(Ts::hm(8, 20), 4i64),  // 3 + 1
            row!(Ts::hm(8, 30), 2i64),
        ]
    );

    // The same answer a replay of the bids produces.
    let mut direct = Replay::new([("Bid", bid_schema())]);
    for (i, (ts, price, item)) in paper_bids().into_iter().enumerate() {
        direct.insert(Ts(i as i64), "Bid", row!(ts, price, item));
    }
    direct.advance(Ts(100));
    let (direct, _) = direct.run(WINDOWED_SQL).unwrap();
    assert_eq!(direct.table().unwrap(), readback.table().unwrap());
}

/// A CSV source that also declares `Person`, a stream it never feeds.
struct AlsoPerson(CsvFileSource, Vec<String>);

impl Source for AlsoPerson {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn streams(&self) -> &[String] {
        &self.1
    }
    fn poll_batch(&mut self, max: usize) -> onesql_types::Result<SourceBatch> {
        self.0.poll_batch(max)
    }
    fn poll_columns(
        &mut self,
        max: usize,
    ) -> onesql_types::Result<Option<onesql::core::connect::ColumnarBatch>> {
        self.0.poll_columns(max)
    }
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
    let person = StreamBuilder::new()
        .column("id", DataType::Int)
        .column("name", DataType::String)
        .build();
    let streams = vec![("Bid", bid_schema()), ("Person", person)];
    let csv = move || -> Box<dyn onesql::PartitionedSource> {
        let config = FileSourceConfig {
            lateness: Duration::from_minutes(1),
            has_header: false,
        };
        let source = CsvFileSource::new(&input, "Bid", Arc::new(bid_schema()), config).unwrap();
        let streams = vec!["Bid".to_string(), "Person".to_string()];
        Box::new(PartitionedVec::single(AlsoPerson(source, streams)))
    };
    let csv = Arc::new(csv);
    let timers = "SELECT bidtime, price FROM Bid EMIT STREAM AFTER DELAY INTERVAL '5' MINUTES";
    let self_join = "SELECT MaxBid.wend, Bid.price, Bid.item FROM Bid, \
         (SELECT MAX(T.price) maxPrice, T.wend wend FROM Tumble(data => TABLE(Bid), \
          timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) T GROUP BY T.wend) MaxBid \
         WHERE Bid.price = MaxBid.maxPrice AND Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE \
         AND Bid.bidtime < MaxBid.wend EMIT STREAM";
    let unread = "SELECT id, name FROM Person EMIT STREAM";
    for (sql, reads) in [(timers, true), (self_join, true), (unread, false)] {
        let run = |vectorize: bool| {
            let mut registry = default_registry();
            let csv = csv.clone();
            registry.register_source("csv", Bespoke::new(streams.clone(), move || csv()));
            let mut session = Session::new(registry);
            session.set_driver_config(DriverConfig {
                vectorize,
                ..common::fixed_batch(16, 1)
            });
            let script = format!(
                "CREATE SOURCE bids WITH (connector = 'csv');
                 CREATE SINK out WITH (connector = 'changelog');
                 INSERT INTO out {sql};"
            );
            let mut pipeline = assemble(&mut session, &script);
            let rendered = session.take_handle::<Arc<Mutex<String>>>("out").unwrap();
            let metrics = pipeline.run().unwrap();
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

    let script = format!(
        "CREATE SOURCE Bid {BID_COLUMNS}
           WITH (connector = 'file', path = '{}', format = 'jsonl', lateness_ms = 360000);
         CREATE SINK out WITH (connector = 'file', path = '{}', format = 'jsonl');
         INSERT INTO out SELECT item, price FROM Bid WHERE price >= 3;",
        input.display(),
        output.display()
    );
    let mut pipeline = assemble(&mut session(), &script);
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
    let mut session = session();
    let script = format!(
        "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 42, events = 2000);
         CREATE SINK out WITH (connector = 'changelog', watermarks = TRUE);
         INSERT INTO out {};",
        queries::Q7
    );
    let mut pipeline = assemble(&mut session, &script);
    let rendered = session.take_handle::<Arc<Mutex<String>>>("out").unwrap();
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
    let mut session = session();
    let script = format!(
        "CREATE SOURCE Bid {BID_COLUMNS} WITH (connector = 'channel', capacity = 128);
         CREATE SINK out WITH (connector = 'channel', capacity = 1024);
         INSERT INTO out SELECT item, price FROM Bid WHERE price > 0;"
    );
    let mut pipeline = assemble(&mut session, &script);
    let publisher = publishers(&mut session, "Bid");
    let events = session.take_handle::<Receiver<SinkEvent>>("out").unwrap();

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

/// The one publisher of channel source `name`.
fn publishers(session: &mut Session, name: &str) -> ChannelPublisher {
    let mut publishers = session.take_handle::<Vec<ChannelPublisher>>(name).unwrap();
    publishers.remove(0)
}

/// Attach-time validation: a source whose instance feeds an unknown
/// stream or a table is refused when an `INSERT` attaches it, and a
/// query over tables alone is refused before any source is built.
#[test]
fn attach_source_validates_streams() {
    // Families that declare `Bid` but whose instances feed `feeds`.
    let mut registry = default_registry();
    for (family, feeds) in [("stray", "Nope"), ("tabled", "Category")] {
        let build = move || -> Box<dyn onesql::PartitionedSource> {
            Box::new(PartitionedVec::single(channel(feeds, 4).1))
        };
        registry.register_source(family, Bespoke::new(vec![("Bid", bid_schema())], build));
    }
    let mut session = Session::new(registry);
    session
        .engine_mut()
        .register_table(
            "Category",
            StreamBuilder::new().column("id", DataType::Int),
            vec![row!(1i64)],
        )
        .unwrap();
    let err = session
        .execute("CREATE SOURCE Category (id INT) WITH (connector = 'channel')")
        .unwrap_err();
    assert!(
        err.to_string()
            .contains("registered as a table, not a stream"),
        "{err}"
    );
    session
        .execute("CREATE SINK out WITH (connector = 'changelog')")
        .unwrap();
    for (family, refusal) in [
        ("stray", "targets unregistered stream 'Nope'"),
        ("tabled", "which is a table, not a stream"),
    ] {
        let script = format!("CREATE SOURCE src WITH (connector = '{family}');");
        session.execute_script(&script).unwrap();
        let err = session
            .execute("INSERT INTO out SELECT item FROM Bid")
            .unwrap_err();
        assert!(err.to_string().contains(refusal), "{err}");
        session.execute("DROP SOURCE src").unwrap();
    }
    let err = session
        .execute("INSERT INTO out SELECT id FROM Category")
        .unwrap_err();
    assert!(err.to_string().contains("reads no streams"), "{err}");
    // A refused INSERT costs nothing: no offset moved, nothing is
    // poisoned, and a pipeline runs over the source the catalog accepts.
    let script = format!(
        "CREATE SOURCE Bid {BID_COLUMNS} WITH (connector = 'channel', capacity = 4);
         INSERT INTO out SELECT item FROM Bid;"
    );
    let mut pipeline = assemble(&mut session, &script);
    publishers(&mut session, "Bid").finish().unwrap();
    assert!(pipeline.run().unwrap().output_watermark.is_final());
}

// ---------------------------------------------------------------------------
// A failed round or finish poisons a non-partitioned pipeline too.
// ---------------------------------------------------------------------------

/// A sink that fails on demand.
#[derive(Clone, Copy)]
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

impl SinkConnector for FailingSink {
    fn declare(&self, _: &SinkSpec, _: &mut OptionBag) -> onesql_types::Result<()> {
        Ok(())
    }
    fn build(
        &self,
        _: &SinkSpec,
        _: &mut OptionBag,
        _: &mut Exports,
    ) -> onesql_types::Result<Box<dyn Sink>> {
        Ok(Box::new(FailingSink { ..*self }))
    }
}

/// Six buffered bids into `sink`; the returned publisher keeps the
/// channel (and so the pipeline) open.
fn pipeline_into(sink: FailingSink) -> (ChannelPublisher, SqlPipeline) {
    let mut registry = default_registry();
    registry.register_sink("failing", sink);
    let mut session = Session::new(registry);
    let script = format!(
        "CREATE SOURCE Bid {BID_COLUMNS} WITH (connector = 'channel', capacity = 16);
         CREATE SINK out WITH (connector = 'failing');
         INSERT INTO out SELECT item, price FROM Bid EMIT STREAM;"
    );
    let pipeline = assemble(&mut session, &script);
    let publisher = publishers(&mut session, "Bid");
    for (i, (ts, price, item)) in paper_bids().into_iter().enumerate() {
        publisher
            .insert(Ts(i as i64), row!(ts, price, item))
            .unwrap();
    }
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
        !pipeline.driver_mut().is_finished(),
        "a half-flushed pipeline must not report finished"
    );
    for err in [
        pipeline.finish().unwrap_err(),
        pipeline.step().unwrap_err(),
        pipeline.driver_mut().checkpoint().unwrap_err(),
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
        pipeline.driver_mut().checkpoint().unwrap_err(),
    ] {
        assert!(err.to_string().contains("poisoned"), "{err}");
    }
}

// ---------------------------------------------------------------------------
// Watermark monotonicity under arbitrary source interleavings.
// ---------------------------------------------------------------------------

/// A session with a `replay{i}` source family per schedule, and the
/// DDL that creates one source of each.
fn replays(schedules: Vec<Replay>) -> (Session, String) {
    let mut registry = default_registry();
    let mut script = String::new();
    for (i, replay) in schedules.into_iter().enumerate() {
        registry.register_source(format!("replay{i}"), replay);
        script += &format!("CREATE SOURCE s{i} WITH (connector = 'replay{i}');\n");
    }
    (Session::new(registry), script)
}

/// An empty schedule for the stream `S (ts, v)`.
fn stream_s() -> Replay {
    let s = StreamBuilder::new()
        .event_time_column("ts")
        .column("v", DataType::Int);
    Replay::new([("S", s.build())])
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
        let mut schedules = Vec::new();
        for script in &scripts {
            let mut replay = stream_s();
            for (k, (event, wm)) in (0i64..).zip(script) {
                if let Some(ts) = event {
                    replay.insert(Ts(*ts), "S", row!(Ts(*ts), *ts));
                }
                if let Some(wm) = wm {
                    replay.watermark(Ts(k), Ts(*wm));
                }
            }
            schedules.push(replay);
        }
        let (mut session, mut script) = replays(schedules);
        script += "SET batch_size = 4;
                   CREATE SINK out WITH (connector = 'channel', capacity = 1000000);
                   INSERT INTO out SELECT ts, v FROM S EMIT STREAM;";
        let mut pipeline = assemble(&mut session, &script);
        let events = session.take_handle::<Receiver<SinkEvent>>("out").unwrap();
        let metrics = pipeline.run().unwrap();

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
        // Every scripted step made it in (a watermark arrives as an
        // event on the replay's clock stream).
        let expected = scripts.iter().flatten().map(|(e, wm)| {
            u64::from(e.is_some()) + u64::from(wm.is_some())
        });
        prop_assert_eq!(metrics.events_in, expected.sum::<u64>());
    }
}

/// The driver's input watermark is the min over live sources.
#[test]
fn input_watermark_is_min_over_sources() {
    let (mut fast, mut slow) = (stream_s(), stream_s());
    fast.watermark(Ts(0), Ts(500)).advance(Ts(1));
    slow.watermark(Ts(0), Ts(100)).advance(Ts(1));
    let (mut session, mut script) = replays(vec![fast, slow]);
    script += "CREATE SINK out WITH (connector = 'changelog');
               INSERT INTO out SELECT ts, v FROM S;";
    let mut pipeline = assemble(&mut session, &script);
    pipeline.step().unwrap();
    assert_eq!(pipeline.metrics().input_watermark, Watermark(Ts(100)));
    // Both schedules exhausted -> the next step finishes the pipeline.
    pipeline.run().unwrap();
    assert!(pipeline.driver_mut().is_finished());
    assert!(pipeline.metrics().input_watermark.is_final());
}
