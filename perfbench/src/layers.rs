//! The traced invocation (`--trace 1`): per-layer metrics.
//!
//! Each workload is re-run at a quarter of its size, alternately with
//! tracing off and with `SET trace = 'on'`, and then its layers are
//! replayed one at a time, standalone, on the same generated input. A
//! layer is timed from outside, around calls into its public functions;
//! nothing here reaches into the engine.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use onesql_connect::{PartitionedSource, Sink, Source, SourceStatus};
use onesql_core::observe::TraceRecord;
use onesql_core::{Engine, StreamRow};
use onesql_tvr::{Change, ChangeBatch};
use onesql_types::{Duration as EventDuration, SchemaRef, Ts};

use crate::gate::Gate;
use crate::report::{median, quantile, secs, Metrics, RunResult};
use crate::scratch;
use crate::tracing::{self_micros_by_name, write_chrome_trace, Tracer};
use crate::workloads::{finish, ClosedLoop, Cx, Driven, Pass};

/// Rows per batch in the standalone replays.
pub const REPLAY_BATCH: usize = 1024;

/// Run `f` `n` times; the median wall in microseconds.
pub fn median_micros(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            secs(start.elapsed()) * 1e6
        })
        .collect();
    median(&times)
}

/// The traced-invocation protocol for a closed-loop workload.
pub fn run_traced(workload: &mut dyn ClosedLoop, cx: &Cx) -> RunResult {
    let mut gate = Gate::default();
    workload.setup(cx, &mut gate);
    let events = cx.quarter();

    // Untraced and traced passes alternate so drift hits both sides.
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut records = Vec::new();
    let started = Instant::now();
    while plain.len() < 2 || secs(started.elapsed()) < cx.args.seconds / 2.0 {
        plain.push(workload.pass(cx, events, None, &mut gate));
        let mut tracer = Tracer::start();
        traced.push(workload.pass(cx, events, Some(&mut tracer), &mut gate));
        records = tracer.stop();
    }
    for pass in plain.iter().chain(traced.iter()) {
        gate.expect_eq("quarter-size sink digest", pass.sink, plain[0].sink);
    }

    let mut m = Metrics::default();
    let wall = |passes: &[Pass]| median(&passes.iter().map(|p| secs(p.wall)).collect::<Vec<_>>());
    let (plain_wall, traced_wall) = (wall(&plain), wall(&traced));
    m.put(
        "trace.overhead_pct",
        (traced_wall - plain_wall) / plain_wall * 100.0,
    );

    self_shares(
        &records,
        traced.last().expect("a traced pass").wall,
        &[
            ("trace.driver.ingest_self_share", "driver.ingest"),
            ("trace.driver.gather_self_share", "driver.gather"),
            ("trace.driver.emit_self_share", "driver.emit"),
            ("trace.driver.finish_self_share", "driver.finish"),
            ("trace.worker.process_self_share", "worker.process"),
        ],
        &mut m,
    );
    let trace_file = scratch::trace_path(cx.args.spec.name);
    write_chrome_trace(&records, &trace_file);
    eprintln!(
        "{}: {} spans -> {}",
        cx.args.spec.name,
        records.len(),
        trace_file.display()
    );

    // The untraced pass with the median wall stands for the run in the
    // per-event breakdown.
    plain.sort_by_key(|p| p.wall);
    let reference = &plain[plain.len() / 2];
    workload.verify(cx, events, reference, &mut gate);
    for &(name, value) in &reference.extra {
        m.put(name, value);
    }
    driver_layer(&reference.driven, &mut m);
    workload.layers(cx, reference, &mut m);
    finish(events * (plain.len() + traced.len()) as u64, gate, m)
}

/// `trace.*_self_share`: for each `(metric, span name)`, the self time of
/// that engine span summed over `records`, as a share of the traced
/// run's wall.
pub fn self_shares(
    records: &[TraceRecord],
    wall: std::time::Duration,
    spans: &[(&str, &'static str)],
    m: &mut Metrics,
) {
    let selfs = self_micros_by_name(records);
    let wall_us = secs(wall) * 1e6;
    for &(metric, span) in spans {
        m.put(
            metric,
            selfs.get(span).copied().unwrap_or(0) as f64 / wall_us,
        );
    }
}

/// `core.driver.*`: the round loop as the bench timed it around `step`,
/// and as the engine's own histograms account it.
pub fn driver_layer(d: &Driven, m: &mut Metrics) {
    let wall_us = secs(d.wall) * 1e6;
    m.put("core.driver.step_p50_us", quantile(&d.step_us, 0.5));
    m.put("core.driver.step_p99_us", quantile(&d.step_us, 0.99));
    m.put("core.driver.rounds", d.metrics.rounds as f64);
    m.put("core.driver.idle_rounds", d.metrics.idle_rounds as f64);
    m.put(
        "core.driver.vectorized_rounds",
        d.metrics.vectorized_rounds as f64,
    );
    m.put(
        "core.driver.fallback_rounds",
        d.metrics.fallback_rounds as f64,
    );
    m.put(
        "core.driver.batch_rows_p50",
        d.metrics.batch_rows.p50() as f64,
    );
    m.put(
        "core.driver.poll_share",
        d.metrics.poll_micros.sum() as f64 / wall_us,
    );
    m.put(
        "core.driver.merge_share",
        d.metrics.merge_micros.sum() as f64 / wall_us,
    );
    m.put(
        "core.driver.emit_share",
        d.metrics.emit_micros.sum() as f64 / wall_us,
    );
}

/// `plan.parse_bind_us`: `Engine::plan` on the workload's query.
pub fn plan_layer(engine: &Engine, sql: &str, m: &mut Metrics) {
    m.put(
        "plan.parse_bind_us",
        median_micros(200, || {
            std::hint::black_box(engine.plan(std::hint::black_box(sql)).expect("query plans"));
        }),
    );
}

/// `core.session.assemble_us`: `execute_script` to a runnable pipeline.
pub fn assemble_layer(mut script: impl FnMut() -> String, m: &mut Metrics) {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let text = script();
            let start = Instant::now();
            let assembled = crate::workloads::assemble(&text);
            let took = secs(start.elapsed()) * 1e6;
            drop(assembled);
            took
        })
        .collect();
    m.put("core.session.assemble_us", median(&times));
}

/// Run a timed standalone replay three times; the last run's product and
/// the median of the three timings. The per-event breakdown subtracts
/// these from a run's wall, so one disturbed replay must not decide it.
pub fn median_of_three<T>(mut replay: impl FnMut() -> (T, f64)) -> (T, f64) {
    let (_, a) = replay();
    let (_, b) = replay();
    let (product, c) = replay();
    (product, median(&[a, b, c]))
}

/// Drain a partitioned source standalone, partitions round-robin.
/// Returns the events of stream index `keep` merged into processing-time
/// order, the total events polled, and nanoseconds per event.
pub fn drain_partitioned(
    source: &mut dyn PartitionedSource,
    keep: usize,
) -> (Vec<(Ts, Change)>, u64, f64) {
    let parts = source.partitions();
    let mut live = vec![true; parts];
    let mut kept = Vec::new();
    let mut total = 0u64;
    let start = Instant::now();
    while live.iter().any(|&l| l) {
        for (p, alive) in live.iter_mut().enumerate() {
            if !*alive {
                continue;
            }
            let batch = source
                .poll_partition(p, REPLAY_BATCH)
                .expect("standalone poll");
            total += batch.events.len() as u64;
            kept.extend(
                batch
                    .events
                    .into_iter()
                    .filter(|e| e.stream == keep)
                    .map(|e| (e.ptime, e.change)),
            );
            *alive = batch.status != SourceStatus::Finished;
        }
    }
    let ns = secs(start.elapsed()) * 1e9 / total.max(1) as f64;
    // One executor sees all partitions: its clock may not regress.
    kept.sort_by_key(|(ptime, _)| *ptime);
    (kept, total, ns)
}

/// Drain a plain source standalone; same returns as
/// [`drain_partitioned`].
pub fn drain_plain(source: &mut dyn Source, keep: usize) -> (Vec<(Ts, Change)>, u64, f64) {
    let mut kept = Vec::new();
    let mut total = 0u64;
    let mut clock = Ts::MIN;
    let start = Instant::now();
    loop {
        let batch = source.poll_batch(REPLAY_BATCH).expect("standalone poll");
        total += batch.events.len() as u64;
        for event in batch.events.into_iter().filter(|e| e.stream == keep) {
            // The driver drags a lagging source clock forward the same way.
            clock = clock.max(event.ptime);
            kept.push((clock, event.change));
        }
        if batch.status == SourceStatus::Finished {
            break;
        }
    }
    let ns = secs(start.elapsed()) * 1e9 / total.max(1) as f64;
    (kept, total, ns)
}

/// One query replayed without source, sink or driver.
pub struct ExecReplay<'a> {
    /// Engine with the input stream registered.
    pub engine: &'a Engine,
    /// The query, `EMIT` clause included.
    pub sql: &'a str,
    /// The stream the events belong to.
    pub stream: &'a str,
    /// Pre-polled events in processing-time order.
    pub events: &'a [(Ts, Change)],
    /// Source events the replayed input stands for (the divisor, so the
    /// per-event layer costs add up to the run's wall per event).
    pub source_events: u64,
    /// Watermark lag behind processing time, as the source asserts it.
    pub lateness: EventDuration,
}

/// What [`exec_layer`] hands to the sink replay.
pub struct ExecOutput {
    /// The query's output changelog as the sink would receive it.
    pub rows: Vec<StreamRow>,
    /// The output schema.
    pub schema: SchemaRef,
    /// Nanoseconds per source event on the batch path.
    pub ns_per_event: f64,
}

/// `tvr.*`, `exec.*`, `state.*`: batches built from pre-polled events,
/// fed through `RunningQuery::change_batch` and, separately, row by row
/// through `RunningQuery::change`; then the state the query holds is
/// snapshotted and restored.
pub fn exec_layer(replay: &ExecReplay, m: &mut Metrics) -> ExecOutput {
    let divisor = replay.source_events.max(1) as f64;
    let chunks: Vec<&[(Ts, Change)]> = replay.events.chunks(REPLAY_BATCH).collect();

    let start = Instant::now();
    let batches: Vec<ChangeBatch> = chunks
        .iter()
        .map(|c| ChangeBatch::from_changes(c).expect("uniform rows form a batch"))
        .collect();
    m.put(
        "tvr.batch_build_ns_per_row",
        secs(start.elapsed()) * 1e9 / replay.events.len().max(1) as f64,
    );

    let watermark_after = |chunk: &[(Ts, Change)]| {
        let last = chunk.last().expect("chunks are non-empty").0;
        (last, last - replay.lateness - EventDuration(1))
    };

    // Batch path.
    let mut q = replay.engine.execute(replay.sql).expect("query runs");
    let start = Instant::now();
    for (chunk, batch) in chunks.iter().zip(&batches) {
        q.change_batch(replay.stream, batch).expect("change_batch");
        let (ptime, wm) = watermark_after(chunk);
        q.watermark(replay.stream, ptime, wm).expect("watermark");
    }
    let fed = start.elapsed();
    m.put("state.live_keys", q.state_metrics().keys as f64);
    let checkpoint = q.checkpoint().expect("operator checkpoint");
    // The operators leave `StateMetrics::encoded_bytes` at 0; the size of
    // the encoded snapshot is the same quantity, measured from outside.
    m.put("state.encoded_bytes", checkpoint.size_bytes() as f64);
    m.put(
        "state.snapshot_us",
        median_micros(5, || {
            std::hint::black_box(q.checkpoint().expect("operator checkpoint"));
        }),
    );
    let restore_times: Vec<f64> = (0..5)
        .map(|_| {
            let mut fresh = replay.engine.execute(replay.sql).expect("query runs");
            let start = Instant::now();
            fresh.restore(&checkpoint).expect("operator restore");
            secs(start.elapsed()) * 1e6
        })
        .collect();
    m.put("state.restore_us", median(&restore_times));
    let start = Instant::now();
    let end = replay.events.last().map(|(t, _)| *t).unwrap_or(Ts(0));
    q.finish(end).expect("finish");
    let ns_per_event = secs(fed + start.elapsed()) * 1e9 / divisor;
    m.put("exec.query_ns_per_event", ns_per_event);
    let log = q.changelog();
    m.put("tvr.changelog_rows", log.len() as f64);
    m.put(
        "exec.retractions_out",
        log.entries().iter().filter(|e| e.change.diff < 0).count() as f64,
    );
    m.put("exec.rows_out", log.len() as f64);
    m.put("exec.out_per_in", log.len() as f64 / divisor);

    // Row path: the same input one `change` at a time.
    let mut rowwise = replay.engine.execute(replay.sql).expect("query runs");
    let start = Instant::now();
    for chunk in &chunks {
        for (ptime, change) in chunk.iter() {
            rowwise
                .change(replay.stream, *ptime, change.clone())
                .expect("change");
        }
        let (ptime, wm) = watermark_after(chunk);
        rowwise
            .watermark(replay.stream, ptime, wm)
            .expect("watermark");
    }
    rowwise.finish(end).expect("finish");
    m.put(
        "exec.query_rowpath_ns_per_event",
        secs(start.elapsed()) * 1e9 / divisor,
    );
    assert_eq!(
        rowwise.changelog().len(),
        log.len(),
        "row path and batch path disagree on the changelog length"
    );

    ExecOutput {
        rows: q.stream_rows().expect("stream rows"),
        schema: q.schema(),
        ns_per_event,
    }
}

/// `connect.file.sink_*`: pre-collected rows through a file sink's
/// `bind`, `write` (in replay-batch slices) and final `flush`. Returns
/// nanoseconds per row.
pub fn sink_layer(mut sink: Box<dyn Sink>, out: &ExecOutput, path: &Path, m: &mut Metrics) -> f64 {
    let start = Instant::now();
    sink.bind(Arc::clone(&out.schema)).expect("sink bind");
    for slice in out.rows.chunks(REPLAY_BATCH) {
        sink.write(slice).expect("sink write");
    }
    sink.flush().expect("sink flush");
    drop(sink);
    let ns = secs(start.elapsed()) * 1e9 / out.rows.len().max(1) as f64;
    m.put("connect.file.sink_ns_per_row", ns);
    let bytes = std::fs::metadata(path).map(|md| md.len()).unwrap_or(0);
    m.put("connect.file.sink_bytes", bytes as f64);
    ns
}

/// `core.driver.overhead_ns_per_event`: the run's wall per event minus
/// the standalone source, query and sink costs — what the driver, the
/// routing and the merge add on top of the layers they connect.
pub fn overhead(
    pass: &Pass,
    events: u64,
    source_ns: f64,
    query_ns: f64,
    sink_ns_per_event: f64,
    m: &mut Metrics,
) {
    let wall_ns = secs(pass.wall) * 1e9 / events.max(1) as f64;
    m.put(
        "core.driver.overhead_ns_per_event",
        wall_ns - source_ns - query_ns - sink_ns_per_event,
    );
}
