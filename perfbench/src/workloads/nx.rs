//! `nx-q1-sharded` and `nx-q5-sharded`: a NEXMark query as a full-stack
//! SQL script — `SET workers = 2`, a 4-partition `nexmark` source, a
//! transactional CSV sink — on the sharded driver.

use std::path::{Path, PathBuf};

use onesql_connect::{
    register_nexmark_streams, CsvSinkMode, PartitionedNexmarkSource, TxnFileSink,
};
use onesql_core::Engine;
use onesql_nexmark::queries;
use onesql_types::Duration as EventDuration;

use crate::gate::{digest_file, Gate};
use crate::layers::{self, ExecReplay};
use crate::report::{secs, Metrics};
use crate::tracing::Tracer;
use crate::workloads::{assemble, assemble_on, check_pass, drive, ClosedLoop, Cx, Pass};

/// Source partitions of every sharded workload.
pub const PARTITIONS: usize = 4;
/// Worker shards of every sharded workload.
pub const WORKERS: usize = 2;
/// Stream index of `Bid` in the nexmark source's stream list.
pub const BID_STREAM: usize = 2;
/// The generator's bounded event-time skew, which its watermarks trail by.
pub const NEXMARK_SKEW: EventDuration = EventDuration::from_seconds(5);

/// The sharded full-stack script for `sql` (no `EMIT` clause).
pub fn sharded_script(sql: &str, seed: u64, events: u64, workers: usize, sink: &Path) -> String {
    format!(
        "SET workers = {workers};
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = {seed}, events = {events},
                 partitions = {PARTITIONS});
         CREATE SINK out
           WITH (connector = 'file', path = '{}', transactional = TRUE);
         INSERT INTO out {sql} EMIT STREAM;",
        sink.display()
    )
}

/// Compare a vectorized multi-worker run of `script_for(workers, sink)`
/// against the row oracle (`vectorize: false`, one worker). Worker count
/// changes the interleaving of equal-ptime rows, and with it the `ver`
/// column, so the comparison is over sorted lines without `ver`.
pub fn oracle_check(dir: &Path, script_for: impl Fn(usize, &Path) -> String, gate: &mut Gate) {
    let fast = dir.join("fast.csv");
    let (_session, mut pipeline) = assemble(&script_for(WORKERS, &fast));
    pipeline.run().expect("vectorized oracle-size run");

    let slow = dir.join("oracle.csv");
    let (_session, mut oracle) = assemble_on(&script_for(1, &slow), false);
    oracle.run().expect("row-oracle run");

    let strip_ver = |path: &Path| -> Vec<String> {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let mut lines: Vec<String> = text
            .lines()
            .map(|l| l.rsplit_once(',').map_or(l, |(head, _)| head).to_string())
            .collect();
        lines.sort();
        lines
    };
    let (got, want) = (strip_ver(&fast), strip_ver(&slow));
    gate.expect(got == want, || {
        format!(
            "5% run differs from the row oracle: {} vs {} rows",
            got.len(),
            want.len()
        )
    });
    gate.expect(!want.is_empty(), || "row oracle produced no output".into());
}

/// A NEXMark suite query on the sharded driver.
#[derive(Debug)]
pub struct Nexmark {
    sql: &'static str,
}

impl Nexmark {
    /// Q1: currency-conversion projection.
    pub fn q1() -> Nexmark {
        Nexmark { sql: queries::Q1 }
    }

    /// Q5: hot items, hop-window `COUNT` per auction.
    pub fn q5() -> Nexmark {
        Nexmark {
            sql: queries::Q5_HOT_ITEMS,
        }
    }
}

/// A fresh sink path for one pass; the previous pass's file is removed,
/// so disk use does not grow with the number of passes.
pub fn pass_sink(cx: &Cx) -> PathBuf {
    cx.scratch.sub("pass").join("out.csv")
}

/// One pass of a sharded script: assemble, drive, digest the sink.
pub fn sharded_pass(script: &str, sink: &Path, events: u64, tracer: Option<&mut Tracer>) -> Pass {
    let (_session, mut pipeline) = assemble(script);
    let driven = drive(&mut pipeline, events, tracer, |_, _| true);
    let wall = driven.wall;
    drop(pipeline);
    Pass {
        driven,
        wall,
        sink: digest_file(sink),
        extra: Vec::new(),
    }
}

/// The parts of the layer replay every nexmark-fed query shares: plan,
/// assemble, standalone source drain, exec and state replay, sink
/// replay, overhead, and the one-worker baseline.
pub fn nexmark_layers(sql: &str, cx: &Cx, reference: &Pass, m: &mut Metrics) {
    let events = cx.quarter();
    let seed = cx.args.seed;
    let dir = cx.scratch.sub("layers");
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    let emitting = format!("{sql} EMIT STREAM");
    layers::plan_layer(&engine, &emitting, m);
    layers::assemble_layer(
        || sharded_script(sql, seed, events, WORKERS, &dir.join("assemble.csv")),
        m,
    );

    let ((bids, total), source_ns) = layers::median_of_three(|| {
        let mut source = PartitionedNexmarkSource::seeded(seed, events, PARTITIONS);
        let (bids, total, ns) = layers::drain_partitioned(&mut source, BID_STREAM);
        ((bids, total), ns)
    });
    assert_eq!(total, events, "standalone source drained a different count");
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
    let sink_file = dir.join("sink.csv");
    let sink_ns_per_row = layers::sink_layer(
        Box::new(TxnFileSink::new(&sink_file, CsvSinkMode::Changelog, true)),
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

    let w1_sink = dir.join("w1.csv");
    let w1 = sharded_pass(
        &sharded_script(sql, seed, events, 1, &w1_sink),
        &w1_sink,
        events,
        None,
    );
    m.put(
        "core.shard.w1_throughput_eps",
        events as f64 / secs(w1.wall),
    );
}

impl ClosedLoop for Nexmark {
    fn setup(&mut self, cx: &Cx, gate: &mut Gate) {
        let dir = cx.scratch.sub("oracle");
        let (sql, seed, events) = (self.sql, cx.args.seed, cx.oracle_events());
        oracle_check(
            &dir,
            |workers, sink| sharded_script(sql, seed, events, workers, sink),
            gate,
        );
    }

    fn pass(&mut self, cx: &Cx, events: u64, tracer: Option<&mut Tracer>, gate: &mut Gate) -> Pass {
        let sink = pass_sink(cx);
        let script = sharded_script(self.sql, cx.args.seed, events, WORKERS, &sink);
        let pass = sharded_pass(&script, &sink, events, tracer);
        check_pass(&pass, events, true, gate);
        pass
    }

    fn layers(&mut self, cx: &Cx, reference: &Pass, m: &mut Metrics) {
        nexmark_layers(self.sql, cx, reference, m);
    }
}
