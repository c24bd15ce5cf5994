//! The flight recorder, black-box: NEXMark Q7 run as two "processes"
//! over a socket — a producer pipeline shipping its output changelog
//! through a `NetSink`, a consumer pipeline fed only by the wire — must
//! stitch into ONE causal trace: the consumer's ingest spans carry the
//! producer's span IDs, delivered inside v2 BATCH frames. The SQL
//! surfaces over the same recorder (`SET trace`, `SHOW TRACE`,
//! `TRACE PIPELINE ... TO`, the `trace` source connector) must expose
//! exactly the records the Rust API sees, and the Chrome export must
//! re-parse as JSON with both pipelines on the timeline.
//!
//! Alongside: watermark provenance names the stuck partition by label,
//! and property tests pin the recorder's concurrency and eviction
//! invariants (a retained child's recorded parent is never evicted
//! while the child survives — what keeps partial rings stitchable).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use onesql::connect::{json, session, Source, SourceStatus, TraceSource};
use onesql::core::observe::{self, FlightRecorder, TraceRecord, TraceSink, TraceSpan};
use onesql::{ChannelPublisher, NetAddr, StatementResult};
use onesql_nexmark::queries;
use onesql_types::{row, Result, Ts};

/// Tests that install the global trace sink (or retune sampling) must not
/// interleave within this binary; the guard also absorbs a poisoned lock
/// so one failing test doesn't cascade.
fn trace_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

// ---------------------------------------------------------------------------
// The acceptance bar: one stitched trace across the wire, and every SQL
// surface reading the same recorder.
// ---------------------------------------------------------------------------

const PRODUCER: &str = "q7_wire_producer";
const CONSUMER: &str = "q7_wire_consumer";

#[test]
fn nexmark_q7_over_the_wire_stitches_into_one_trace() {
    let _guard = trace_lock()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    // `SET trace = 'on'` is the only switch: it installs the process-wide
    // recorder as the trace sink at full sampling.
    let mut s = session();
    s.execute("SET trace = 'on'").unwrap();

    // Consumer side binds first so the producer's lazy connect succeeds.
    // Its only input is the socket; Q7's output columns become the `Mid`
    // stream's schema. A pipeline's trace label is its INSERT target.
    let mut consumer = session();
    let script = format!(
        "CREATE SOURCE Mid (wstart TIMESTAMP, wend TIMESTAMP, btime TIMESTAMP,
                            price INT, auction INT)
           WITH (connector = 'net', addr = 'tcp:127.0.0.1:0');
         CREATE SINK {CONSUMER} WITH (connector = 'changelog');
         INSERT INTO {CONSUMER} SELECT wstart, price, auction FROM Mid EMIT STREAM;"
    );
    let mut driver = consumer
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    let addr = consumer.take_handle::<NetAddr>("Mid").unwrap();
    let rendered = consumer
        .take_handle::<Arc<Mutex<String>>>(CONSUMER)
        .unwrap();

    // The producer "process": Q7 over seeded NEXMark, output shipped
    // through a net sink. Its driver spans close while frames are pumped,
    // so each BATCH frame carries the emitting span as trace context.
    let producer = std::thread::spawn(move || -> Result<()> {
        let script = format!(
            "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = 1500);
             CREATE SINK {PRODUCER} WITH (connector = 'net', addr = '{addr}', stream = 'Mid');
             INSERT INTO {PRODUCER} {} EMIT STREAM;",
            queries::Q7
        );
        session().execute_script(&script)?.into_pipeline()?.run()?;
        Ok(())
    });
    driver.run().unwrap();
    producer.join().unwrap().unwrap();
    assert!(
        !rendered.lock().unwrap().is_empty(),
        "Q7 rows crossed the wire"
    );

    // Stop recording before reading, so the assertions race nothing.
    s.execute("SET trace = 'off'").unwrap();
    let records = observe::recorder().records();

    let produced: Vec<&TraceRecord> = records.iter().filter(|r| r.pipeline == PRODUCER).collect();
    let consumed: Vec<&TraceRecord> = records.iter().filter(|r| r.pipeline == CONSUMER).collect();
    assert!(
        produced.iter().any(|r| r.name == "driver.emit"),
        "producer recorded emit spans"
    );
    assert!(
        consumed.iter().any(|r| r.name == "driver.round"),
        "consumer recorded rounds"
    );

    // The wire join: consumer ingest spans whose parent is a *producer*
    // span — trace context carried inside v2 BATCH frames, not shared
    // thread state.
    let producer_spans: BTreeSet<u64> = produced.iter().map(|r| r.span).collect();
    let wired: Vec<&&TraceRecord> = consumed
        .iter()
        .filter(|r| r.name == "driver.ingest" && producer_spans.contains(&r.parent))
        .collect();
    assert!(
        !wired.is_empty(),
        "no consumer ingest span references a producer parent: the wire \
         dropped the trace context"
    );

    // Stitching from the consumer's label pulls the producer's spans in
    // through those wire-carried parents: one trace, both pipelines.
    let stitched = observe::stitched(&records, CONSUMER);
    assert!(stitched.iter().any(|r| r.pipeline == CONSUMER));
    assert!(
        stitched.iter().any(|r| r.pipeline == PRODUCER),
        "stitching did not cross the wire"
    );

    // SHOW TRACE FOR exposes exactly the stitched closure, in order.
    let StatementResult::Trace(shown) = s.execute(&format!("SHOW TRACE FOR '{CONSUMER}'")).unwrap()
    else {
        panic!("expected Trace");
    };
    assert_eq!(
        shown.iter().map(|r| r.seq).collect::<Vec<_>>(),
        stitched.iter().map(|r| r.seq).collect::<Vec<_>>()
    );
    // LIMIT keeps the most recent n.
    let StatementResult::Trace(limited) = s
        .execute(&format!("SHOW TRACE FOR '{CONSUMER}' LIMIT 3"))
        .unwrap()
    else {
        panic!("expected Trace");
    };
    assert_eq!(limited.len(), 3);
    assert_eq!(
        limited.iter().map(|r| r.seq).collect::<Vec<_>>(),
        stitched[stitched.len() - 3..]
            .iter()
            .map(|r| r.seq)
            .collect::<Vec<_>>()
    );

    // TRACE PIPELINE ... TO exports the same closure as Chrome trace
    // JSON: it re-parses, carries one complete event per span, and puts
    // both pipelines on the timeline as named processes.
    let dir = std::env::temp_dir().join("onesql_trace_pipeline");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("q7-{}.json", std::process::id()));
    let StatementResult::TraceExported {
        pipeline, spans, ..
    } = s
        .execute(&format!(
            "TRACE PIPELINE {CONSUMER} TO '{}'",
            path.display()
        ))
        .unwrap()
    else {
        panic!("expected TraceExported");
    };
    assert_eq!(pipeline, CONSUMER);
    assert_eq!(spans, stitched.len());
    let exported = std::fs::read_to_string(&path).unwrap();
    let json::Json::Array(events) = json::parse(&exported).unwrap() else {
        panic!("export is not a JSON array");
    };
    let complete = |e: &json::Json| {
        let json::Json::Object(o) = e else {
            return false;
        };
        o.get("ph") == Some(&json::Json::String("X".to_string()))
    };
    assert_eq!(
        events.iter().filter(|e| complete(e)).count(),
        stitched.len(),
        "one complete event per stitched span"
    );
    let process_names: Vec<&json::Json> = events
        .iter()
        .filter_map(|e| {
            let json::Json::Object(o) = e else {
                return None;
            };
            (o.get("name") == Some(&json::Json::String("process_name".to_string())))
                .then(|| o.get("args"))?
        })
        .collect();
    assert_eq!(
        process_names.len(),
        2,
        "both pipelines named: {exported:.300}"
    );

    // The `trace` connector streams the same records as rows: one row
    // per consumer-labelled span, IDs rendered exactly as the export.
    let mut trace_source = TraceSource::new("sys_trace", vec![CONSUMER.to_string()]);
    let mut streamed: Vec<String> = Vec::new();
    let status = loop {
        let batch = trace_source.poll_batch(512).unwrap();
        if batch.events.is_empty() {
            break batch.status;
        }
        for event in batch.events {
            streamed.push(event.change.row.values()[3].as_str().unwrap().to_string());
        }
    };
    assert_eq!(
        status,
        SourceStatus::Finished,
        "the watched pipeline published its final snapshot, so the stream ends"
    );
    let expected: Vec<String> = consumed.iter().map(|r| format!("{:#x}", r.span)).collect();
    assert_eq!(streamed, expected, "connector rows mirror the recorder");

    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Watermark provenance: "why is my watermark stuck" has a named answer.
// ---------------------------------------------------------------------------

#[test]
fn watermark_provenance_names_the_stuck_partition() {
    // The driver opens spans whenever another test has a sink installed.
    let _guard = trace_lock()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut s = session();
    s.execute("SET workers = 2").unwrap();
    let script = "CREATE PARTITIONED SOURCE Bid (auction INT, price INT, bidtime TIMESTAMP,
                                                WATERMARK FOR bidtime)
                    WITH (connector = 'channel', partitions = 2);
                  CREATE SINK out WITH (connector = 'changelog');
                  INSERT INTO out SELECT auction, price FROM Bid;";
    let mut pipeline = s.execute_script(script).unwrap().into_pipeline().unwrap();
    let publishers = s.take_handle::<Vec<ChannelPublisher>>("Bid").unwrap();
    let driver = pipeline.driver_mut();

    // Partition 0 races ahead; partition 1 says nothing at all.
    publishers[0]
        .insert(Ts(5), row!(1i64, 10i64, Ts(5)))
        .unwrap();
    publishers[0].watermark(Ts(100)).unwrap();
    for _ in 0..10 {
        driver.step().unwrap();
    }
    let provenance = driver.watermark_provenance();
    let bid = provenance
        .iter()
        .find(|p| p.stream == "bid")
        .expect("provenance for the bid stream");
    assert!(
        bid.holder.ends_with("[1]"),
        "the silent partition holds the minimum: {}",
        bid.holder
    );
    assert_eq!(bid.holder_last_event, None, "it never produced an event");
    assert_eq!(bid.watermark, bid.holder_watermark);
    let stuck_at = bid.watermark;

    // Once the laggard speaks, the stream watermark moves — and the
    // provenance still points at it (100 vs 50: still the minimum).
    publishers[1].watermark(Ts(50)).unwrap();
    for _ in 0..10 {
        driver.step().unwrap();
    }
    let provenance = driver.watermark_provenance();
    let bid = provenance.iter().find(|p| p.stream == "bid").unwrap();
    assert!(bid.holder.ends_with("[1]"), "{}", bid.holder);
    assert!(bid.watermark > stuck_at, "the combined watermark advanced");
    assert_eq!(bid.watermark, bid.holder_watermark);

    publishers[0].finish().unwrap();
    publishers[1].finish().unwrap();
    driver.run().unwrap();
}

// ---------------------------------------------------------------------------
// Recorder invariants, property-style.
// ---------------------------------------------------------------------------

/// Delivers every closed span to two recorders: a small ring that evicts, and a
/// large one that sees everything (the ground truth for "was the parent
/// ever recorded").
struct Fanout(Arc<FlightRecorder>, Arc<FlightRecorder>);

impl TraceSink for Fanout {
    fn record(&self, record: &TraceRecord) {
        self.0.record(record);
        self.1.record(record);
    }
}

fn nest(depth: usize) {
    if depth == 0 {
        return;
    }
    let _child = TraceSpan::child("worker.process");
    nest(depth - 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent emission into a tiny ring never panics, and eviction
    /// never strands a child: if a retained record's parent was recorded
    /// at all, the parent is still retained (spans close child-first, so
    /// parents are always the newer record — oldest-first eviction can
    /// only drop children before their parents).
    #[test]
    fn concurrent_emit_never_panics_and_never_strands_a_child(
        threads in 1usize..4,
        roots in 1usize..6,
        depth in 1usize..5,
        capacity in 1usize..24,
    ) {
        let _guard = trace_lock()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let small = Arc::new(FlightRecorder::new(capacity));
        let full = Arc::new(FlightRecorder::new(1 << 16));
        observe::set_sample(1);
        observe::install(Arc::new(Fanout(small.clone(), full.clone())));

        let handles: Vec<_> = (0..threads)
            .map(|t| {
                std::thread::spawn(move || {
                    observe::set_thread_pipeline("prop_trace");
                    observe::set_thread_worker(t as i32);
                    for _ in 0..roots {
                        let root = TraceSpan::root("driver.round");
                        nest(depth);
                        drop(root);
                    }
                })
            })
            .collect();
        let mut panicked = false;
        for handle in handles {
            panicked |= handle.join().is_err();
        }
        observe::uninstall();
        prop_assert!(!panicked, "a recording thread panicked");

        let survived = small.records();
        let everything = full.records();
        prop_assert_eq!(
            everything.len(),
            threads * roots * (depth + 1),
            "the unbounded recorder saw every close"
        );
        prop_assert!(survived.len() <= capacity);
        prop_assert!(
            survived.windows(2).all(|w| w[0].seq < w[1].seq),
            "retained records stay oldest-first"
        );
        let retained: BTreeSet<u64> = survived.iter().map(|r| r.span).collect();
        let recorded: BTreeSet<u64> = everything.iter().map(|r| r.span).collect();
        for r in &survived {
            if r.parent != 0 && recorded.contains(&r.parent) {
                prop_assert!(
                    retained.contains(&r.parent),
                    "span {:#x} survived but its recorded parent {:#x} was \
                     evicted: a missing-but-newer parent",
                    r.span,
                    r.parent
                );
            }
        }
    }

    /// Sampling is all-or-nothing per tree: children inherit the root's
    /// decision, so a divisor of N records whole trees (root plus both
    /// children) or nothing — never a child without its recorded root.
    #[test]
    fn sampled_trees_are_recorded_whole_or_not_at_all(
        divisor in 1u64..5,
        roots in 1usize..10,
    ) {
        let _guard = trace_lock()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ring = Arc::new(FlightRecorder::new(1 << 16));
        observe::set_sample(divisor);
        observe::install(ring.clone() as Arc<dyn TraceSink>);
        for _ in 0..roots {
            let root = TraceSpan::root("driver.round");
            {
                let _a = TraceSpan::child("driver.ingest");
            }
            {
                let _b = TraceSpan::child("driver.emit");
            }
            drop(root);
        }
        observe::uninstall();
        observe::set_sample(1);

        let records = ring.records();
        prop_assert_eq!(records.len() % 3, 0, "whole trees only");
        let spans: BTreeSet<u64> = records.iter().map(|r| r.span).collect();
        for r in &records {
            if r.parent != 0 {
                prop_assert!(
                    spans.contains(&r.parent),
                    "recorded child {:#x} lacks its parent {:#x}",
                    r.span,
                    r.parent
                );
            }
        }
    }
}
