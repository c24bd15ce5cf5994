//! Causal tracing across the wire, end to end: NEXMark Q7 runs as a
//! producer pipeline whose output changelog ships through a `NetSink`;
//! a consumer pipeline's only input is the socket. With `SET trace =
//! 'on'`, both pipelines' drivers record spans into the process flight recorder,
//! and the v2 OSQW BATCH frames carry the producer's span IDs — so the
//! consumer's ingest spans parent under the producer's emit spans and
//! the two pipelines stitch into ONE trace. `TRACE PIPELINE ... TO`
//! exports it as Chrome trace-event JSON (load in `chrome://tracing`
//! or Perfetto), which this example re-parses to prove it round-trips.
//!
//! Run with: `cargo run --release --example trace_pipeline`

use std::sync::{Arc, Mutex};

use onesql::connect::{json, session};
use onesql::{NetAddr, StatementResult};
use onesql_nexmark::queries;
use onesql_types::Result;

const EVENTS: u64 = 2_000;
const PRODUCER: &str = "q7_producer";
const CONSUMER: &str = "q7_consumer";

fn main() -> Result<()> {
    // The trace knob is ordinary session state: one statement installs
    // the flight recorder at full sampling.
    let mut s = session();
    s.execute("SET trace = 'on'")?;

    // The consumer "process" binds first; the producer connects lazily.
    // Q7's output columns are its input schema, and a pipeline's trace
    // label is its INSERT target.
    let script = format!(
        "CREATE SOURCE Mid (wstart TIMESTAMP, wend TIMESTAMP, btime TIMESTAMP,
                            price INT, auction INT)
           WITH (connector = 'net', addr = 'tcp:127.0.0.1:0');
         CREATE SINK {CONSUMER} WITH (connector = 'changelog');
         INSERT INTO {CONSUMER} SELECT wstart, price, auction FROM Mid EMIT STREAM;"
    );
    let mut consumer = s.execute_script(&script)?.into_pipeline()?;
    let addr = s
        .take_handle::<NetAddr>("Mid")
        .expect("the net source exports its address");
    let rendered = s
        .take_handle::<Arc<Mutex<String>>>(CONSUMER)
        .expect("the in-memory changelog sink exports its buffer");

    // The producer "process": Q7 over seeded NEXMark, shipped as the
    // stream `Mid`. Each BATCH frame carries the emitting span's ID.
    let producer = std::thread::spawn(move || -> Result<u64> {
        let script = format!(
            "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = {EVENTS});
             CREATE SINK {PRODUCER} WITH (connector = 'net', addr = '{addr}', stream = 'Mid');
             INSERT INTO {PRODUCER} {} EMIT STREAM;",
            queries::Q7
        );
        let mut producer = session().execute_script(&script)?.into_pipeline()?;
        Ok(producer.run()?.events_out)
    });
    let consumed = consumer.run()?.events_in;
    let shipped = producer.join().expect("producer thread")?;
    s.execute("SET trace = 'off'")?;
    println!(
        "== Q7 over the wire: {shipped} rows shipped, {consumed} consumed, {} rendered lines ==",
        rendered.lock().unwrap().lines().count()
    );

    // SHOW TRACE: the stitched closure from the consumer's side reaches
    // back through the wire-carried parents into the producer.
    let StatementResult::Trace(records) = s.execute(&format!("SHOW TRACE FOR '{CONSUMER}'"))?
    else {
        panic!("expected Trace");
    };
    let wired = records.iter().filter(|r| r.pipeline == PRODUCER).count();
    println!(
        "== SHOW TRACE FOR '{CONSUMER}': {} spans, {wired} stitched in from '{PRODUCER}' ==",
        records.len()
    );
    for record in records
        .iter()
        .rev()
        .take(6)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!(
            "{:14} pipeline={:12} span={:#x} parent={:#x} dur={}us",
            record.name,
            record.pipeline,
            record.span,
            record.parent,
            record.end_micros.saturating_sub(record.start_micros),
        );
    }
    assert!(
        wired > 0,
        "no producer spans stitched into the consumer trace"
    );

    // Export the stitched trace as Chrome trace-event JSON and re-parse
    // it: every span is one complete ("ph":"X") event, and both
    // pipelines appear as named processes on the timeline.
    let dir = std::env::temp_dir().join("onesql_trace_example");
    std::fs::create_dir_all(&dir).map_err(|e| onesql_types::Error::exec(format!("mkdir: {e}")))?;
    let path = dir.join(format!("q7-trace-{}.json", std::process::id()));
    let StatementResult::TraceExported { spans, .. } = s.execute(&format!(
        "TRACE PIPELINE {CONSUMER} TO '{}'",
        path.display()
    ))?
    else {
        panic!("expected TraceExported");
    };
    let exported = std::fs::read_to_string(&path)
        .map_err(|e| onesql_types::Error::exec(format!("read export: {e}")))?;
    let json::Json::Array(events) = json::parse(&exported)? else {
        panic!("export is not a JSON array");
    };
    let get = |e: &json::Json, key: &str| -> Option<json::Json> {
        let json::Json::Object(o) = e else {
            return None;
        };
        o.get(key).cloned()
    };
    let complete = events
        .iter()
        .filter(|e| get(e, "ph") == Some(json::Json::String("X".to_string())))
        .count();
    let processes = events
        .iter()
        .filter(|e| get(e, "name") == Some(json::Json::String("process_name".to_string())))
        .count();
    println!(
        "== exported {} -> {} bytes, {complete} complete events, {processes} named processes ==",
        path.display(),
        exported.len()
    );
    assert_eq!(complete, spans, "one complete event per exported span");
    assert_eq!(processes, 2, "both pipelines on the timeline");
    let _ = std::fs::remove_file(&path);
    println!("== done: one stitched trace across two pipelines and a socket ==");
    Ok(())
}
