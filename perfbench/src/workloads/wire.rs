//! `wire-q0`: two pipelines joined by the OSQW wire over TCP loopback.
//! A producer thread runs `nexmark` → Q0 → `NetSink`; the consumer runs
//! `NetSource` → selective filter → CSV sink. The consumer binds
//! `127.0.0.1:0`, so parallel invocations never collide.

use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use onesql_connect::{
    register_nexmark_streams, NetAddr, NetConfig, NetPublisher, NetSource, NexmarkSource, Source,
    SourceStatus,
};
use onesql_core::Engine;
use onesql_nexmark::queries;

use crate::gate::{digest_file, Gate};
use crate::layers::{self, ExecReplay};
use crate::report::{secs, Metrics};
use crate::tracing::Tracer;
use crate::workloads::nx::{pass_sink, BID_STREAM, NEXMARK_SKEW};
use crate::workloads::{assemble, assemble_on, check_pass, drive, ClosedLoop, Cx, Pass};

/// The consumer's filter: as selective as Q2, so its sink stays idle and
/// the wire dominates.
const CONSUMER_SQL: &str = "SELECT auction, price FROM feed WHERE auction % 123 = 0";

fn producer_script(seed: u64, events: u64, addr: &str) -> String {
    format!(
        "CREATE SOURCE nex WITH (connector = 'nexmark', seed = {seed}, events = {events});
         CREATE SINK wire WITH (connector = 'net', addr = '{addr}', stream = 'feed');
         INSERT INTO wire {} EMIT STREAM;",
        queries::Q0
    )
}

fn consumer_script(sink: &Path) -> String {
    format!(
        "CREATE SOURCE feed (auction INT, bidder INT, price INT, dateTime TIMESTAMP,
                             WATERMARK FOR dateTime)
           WITH (connector = 'net', addr = 'tcp:127.0.0.1:0');
         CREATE SINK out WITH (connector = 'file', path = '{}');
         INSERT INTO out {CONSUMER_SQL} EMIT STREAM;",
        sink.display()
    )
}

/// Counts made outside the engine, from the generated input alone.
#[derive(Debug, Clone, Copy)]
struct Expected {
    events: u64,
    /// Bids among the events: what Q0 ships and the consumer ingests.
    bids: u64,
    /// Bids the consumer's filter passes: the sink's row count.
    matches: u64,
}

fn count_expected(seed: u64, events: u64) -> Expected {
    let mut source = NexmarkSource::seeded(seed, events);
    let (bids, total, _) = layers::drain_plain(&mut source, BID_STREAM);
    assert_eq!(total, events);
    let matches = bids
        .iter()
        .filter(|(_, c)| c.row.value(0).and_then(|v| v.as_int()).expect("auction id") % 123 == 0)
        .count() as u64;
    Expected {
        events,
        bids: bids.len() as u64,
        matches,
    }
}

/// The workload.
#[derive(Debug, Default)]
pub struct WireQ0 {
    expected: Vec<Expected>,
}

impl WireQ0 {
    fn expected(&mut self, seed: u64, events: u64) -> Expected {
        if let Some(e) = self.expected.iter().find(|e| e.events == events) {
            return *e;
        }
        let counted = count_expected(seed, events);
        self.expected.push(counted);
        counted
    }
}

/// One producer/consumer run. The clock starts when both pipelines are
/// assembled and stops when the consumer's sink has committed.
fn wire_run(
    seed: u64,
    expected: Expected,
    sink: &Path,
    vectorize: bool,
    tracer: Option<&mut Tracer>,
) -> Pass {
    let (mut session, mut consumer) = assemble_on(&consumer_script(sink), vectorize);
    let addr = session
        .take_handle::<NetAddr>("feed")
        .expect("net source exports its bound address")
        .to_string();

    let start_line = Arc::new(Barrier::new(2));
    let (release, released) = mpsc::channel::<()>();
    let producer = {
        let start_line = Arc::clone(&start_line);
        let events = expected.events;
        std::thread::spawn(move || {
            let (_session, mut pipeline) = assemble(&producer_script(seed, events, &addr));
            start_line.wait();
            let metrics = pipeline.run().expect("producer run");
            // Keep the connection open until the consumer has read it all.
            let _ = released.recv();
            metrics.events_in
        })
    };
    start_line.wait();
    let start = Instant::now();
    let driven = drive(&mut consumer, expected.bids, tracer, |_, _| true);
    let wall = start.elapsed();
    release.send(()).expect("producer thread alive");
    let produced = producer.join().expect("producer thread");
    assert_eq!(
        produced, expected.events,
        "producer ingested a different count"
    );
    drop(consumer);
    Pass {
        driven,
        wall,
        sink: digest_file(sink),
        extra: Vec::new(),
    }
}

impl ClosedLoop for WireQ0 {
    fn prepare(&mut self, cx: &Cx, events: u64) {
        self.expected(cx.args.seed, events);
    }

    fn setup(&mut self, cx: &Cx, gate: &mut Gate) {
        self.expected.clear();
        let full = if cx.args.trace {
            cx.quarter()
        } else {
            cx.events
        };
        self.prepare(cx, full);
        let small = self.expected(cx.args.seed, cx.oracle_events());
        let dir = cx.scratch.sub("oracle");
        let (fast, slow) = (dir.join("fast.csv"), dir.join("oracle.csv"));
        wire_run(cx.args.seed, small, &fast, true, None);
        wire_run(cx.args.seed, small, &slow, false, None);
        gate.expect_eq(
            "5% run vs row oracle",
            digest_file(&fast),
            digest_file(&slow),
        );
    }

    fn pass(&mut self, cx: &Cx, events: u64, tracer: Option<&mut Tracer>, gate: &mut Gate) -> Pass {
        let expected = self.expected(cx.args.seed, events);
        let sink = pass_sink(cx);
        let pass = wire_run(cx.args.seed, expected, &sink, true, tracer);
        check_pass(&pass, expected.bids, true, gate);
        gate.expect_eq(
            "sink rows vs matches counted at generation",
            pass.sink.rows(true),
            expected.matches,
        );
        pass
    }

    fn layers(&mut self, cx: &Cx, _reference: &Pass, m: &mut Metrics) {
        let events = cx.quarter();
        let seed = cx.args.seed;
        let mut engine = Engine::new();
        register_nexmark_streams(&mut engine);
        let emitting = format!("{} EMIT STREAM", queries::Q0);
        layers::plan_layer(&engine, &emitting, m);
        // A net sink connects on its first write, so assembling against an
        // address nobody listens on is safe.
        layers::assemble_layer(|| producer_script(seed, events, "tcp:127.0.0.1:9"), m);

        let (bids, source_ns) = layers::median_of_three(|| {
            let mut source = NexmarkSource::seeded(seed, events);
            let (bids, _, ns) = layers::drain_plain(&mut source, BID_STREAM);
            (bids, ns)
        });
        m.put("connect.nexmark.poll_ns_per_event", source_ns);
        let out = layers::exec_layer(
            &ExecReplay {
                engine: &engine,
                sql: &emitting,
                stream: "Bid",
                events: &bids,
                source_events: events,
                lateness: NEXMARK_SKEW,
            },
            m,
        );

        // The wire alone: a publisher against a bare poll loop, no engines.
        let config = NetConfig::default();
        let streams = vec!["feed".to_string()];
        let mut consumer = NetSource::bind(NetAddr::tcp("127.0.0.1:0"), streams.clone(), config)
            .expect("bind loopback");
        let mut publisher = NetPublisher::new(consumer.local_addr(), 0, streams, config);
        let wire_events = out.rows.len().max(1) as f64;
        let reader = std::thread::spawn(move || {
            let start = Instant::now();
            let mut received = 0u64;
            loop {
                let batch = consumer.poll_batch(config.batch_events).expect("wire poll");
                received += batch.events.len() as u64;
                if batch.status == SourceStatus::Finished {
                    return (received, start.elapsed());
                }
            }
        });
        let start = Instant::now();
        for (i, row) in out.rows.iter().enumerate() {
            publisher
                .insert(0, row.ptime, row.row.clone())
                .expect("wire send");
            if (i + 1) % config.batch_events == 0 {
                publisher
                    .watermark(row.ptime - NEXMARK_SKEW)
                    .expect("wire watermark");
                publisher.flush().expect("wire flush");
            }
        }
        publisher.finish().expect("wire finish");
        let published = start.elapsed();
        let (received, consumed) = reader.join().expect("wire reader thread");
        assert_eq!(received, out.rows.len() as u64, "the wire dropped events");
        let stats = publisher.stats();
        m.put(
            "connect.net.publish_ns_per_event",
            secs(published) * 1e9 / wire_events,
        );
        m.put(
            "connect.net.consume_ns_per_event",
            secs(consumed) * 1e9 / wire_events,
        );
        m.put(
            "connect.net.bytes_per_event",
            stats.bytes as f64 / wire_events,
        );
        m.put("connect.net.frames", stats.frames as f64);
        m.put("connect.net.replayed", stats.replayed as f64);
    }
}
