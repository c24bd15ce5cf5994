//! `csv-q2-plain`: Bid rows as a CSV file through a non-partitioned
//! `file` source, Q2's selective filter, and a plain CSV sink — the plain
//! `PipelineDriver`. The bypass workload for sink, merge and state work.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use onesql_connect::{
    CsvFileSink, CsvFileSource, CsvSinkMode, FileSourceConfig, Source, SourceStatus,
};
use onesql_core::Engine;
use onesql_nexmark::model::Bid;
use onesql_nexmark::queries;

use crate::gate::{digest_file, Gate};
use crate::inputs::{write_bid_csv, BidFile};
use crate::layers::{self, ExecReplay, REPLAY_BATCH};
use crate::report::{secs, Metrics};
use crate::tracing::Tracer;
use crate::workloads::nx::{pass_sink, NEXMARK_SKEW};
use crate::workloads::{assemble, assemble_on, check_pass, drive, ClosedLoop, Cx, Pass};

/// The workload; remembers what it generated so passes can be checked
/// against counts made outside the engine.
#[derive(Debug, Default)]
pub struct CsvQ2 {
    files: Vec<(PathBuf, BidFile)>,
}

fn script(input: &Path, sink: &Path) -> String {
    format!(
        "CREATE SOURCE Bid (auction INT, bidder INT, price INT, dateTime TIMESTAMP,
                            WATERMARK FOR dateTime)
           WITH (connector = 'file', path = '{}', lateness_ms = {});
         CREATE SINK out WITH (connector = 'file', path = '{}');
         INSERT INTO out {} EMIT STREAM;",
        input.display(),
        NEXMARK_SKEW.millis(),
        sink.display(),
        queries::Q2
    )
}

impl CsvQ2 {
    /// (Re)generate the input file holding `rows` bids.
    fn generate(&mut self, cx: &Cx, rows: u64) -> PathBuf {
        let path = cx.scratch.dir().join(format!("bids-{rows}.csv"));
        let written = write_bid_csv(&path, cx.args.seed, rows);
        self.files.retain(|(p, _)| p != &path);
        self.files.push((path.clone(), written));
        path
    }

    fn file(&self, rows: u64) -> &(PathBuf, BidFile) {
        self.files
            .iter()
            .find(|(_, f)| f.rows == rows)
            .unwrap_or_else(|| panic!("no generated input of {rows} rows"))
    }
}

impl ClosedLoop for CsvQ2 {
    fn prepare(&mut self, cx: &Cx, events: u64) {
        self.generate(cx, events);
    }

    fn setup(&mut self, cx: &Cx, gate: &mut Gate) {
        let full = if cx.args.trace {
            cx.quarter()
        } else {
            cx.events
        };
        self.prepare(cx, full);
        let small = self.generate(cx, cx.oracle_events());

        // Row oracle: same script, vectorization off. The plain driver's
        // output order does not depend on it, so the bytes must match.
        let dir = cx.scratch.sub("oracle");
        let fast = dir.join("fast.csv");
        let (_session, mut pipeline) = assemble(&script(&small, &fast));
        pipeline.run().expect("vectorized oracle-size run");
        let slow = dir.join("oracle.csv");
        let (_session, mut oracle) = assemble_on(&script(&small, &slow), false);
        oracle.run().expect("row-oracle run");
        gate.expect_eq(
            "5% run vs row oracle",
            digest_file(&fast),
            digest_file(&slow),
        );
    }

    fn pass(&mut self, cx: &Cx, events: u64, tracer: Option<&mut Tracer>, gate: &mut Gate) -> Pass {
        let (input, written) = self.file(events).clone();
        let sink = pass_sink(cx);
        let (_session, mut pipeline) = assemble(&script(&input, &sink));
        let driven = drive(&mut pipeline, events, tracer, |_, _| true);
        drop(pipeline);
        let pass = Pass {
            wall: driven.wall,
            driven,
            sink: digest_file(&sink),
            extra: Vec::new(),
        };
        check_pass(&pass, events, true, gate);
        gate.expect_eq(
            "sink rows vs bids counted at generation",
            pass.sink.rows(true),
            written.q2_matches,
        );
        pass
    }

    fn layers(&mut self, cx: &Cx, reference: &Pass, m: &mut Metrics) {
        let events = cx.quarter();
        let (input, _) = self.file(events).clone();
        let dir = cx.scratch.sub("layers");
        let schema = Arc::new(Bid::schema());
        let mut engine = Engine::new();
        engine.register_stream_schema("Bid", Bid::schema());
        let emitting = format!("{} EMIT STREAM", queries::Q2);
        layers::plan_layer(&engine, &emitting, m);
        layers::assemble_layer(|| script(&input, &dir.join("assemble.csv")), m);

        let open = || {
            CsvFileSource::new(
                &input,
                "Bid",
                Arc::clone(&schema),
                FileSourceConfig {
                    lateness: NEXMARK_SKEW,
                    has_header: false,
                },
            )
            .expect("open input file")
        };
        // Timed drain on the columnar poll the vectorizing driver uses.
        let (decoded, source_ns) = layers::median_of_three(|| {
            let mut source = open();
            let start = Instant::now();
            let mut decoded = 0u64;
            loop {
                let batch = source
                    .poll_columns(REPLAY_BATCH)
                    .expect("columnar poll")
                    .expect("the CSV source is columnar");
                decoded += batch.columns.len() as u64;
                if batch.status == SourceStatus::Finished {
                    break;
                }
            }
            (decoded, secs(start.elapsed()) * 1e9 / decoded.max(1) as f64)
        });
        assert_eq!(decoded, events, "standalone decode saw a different count");
        m.put("connect.file.decode_ns_per_event", source_ns);

        let (bids, _, _) = layers::drain_plain(&mut open(), 0);
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
        let sink_file = dir.join("sink.csv");
        let sink_ns_per_row = layers::sink_layer(
            Box::new(CsvFileSink::new(&sink_file, CsvSinkMode::Changelog).expect("open sink")),
            &out,
            &sink_file,
            m,
        );
        layers::overhead(
            reference,
            events,
            source_ns,
            out.ns_per_event,
            sink_ns_per_row * out.rows.len() as f64 / events as f64,
            m,
        );
    }
}
