//! Observability, black-box: a live NEXMark Q7 pipeline observed *with
//! SQL* — a second pipeline reading the `metrics` source connector — must
//! see the first one's counters advance while it runs and land exactly on
//! the final totals. `SHOW PIPELINES` reports each pipeline's worker count,
//! `EXPLAIN ANALYZE` runs the query and returns real metrics, and the
//! counters that describe *data* (not scheduling) survive kill →
//! `RESTORE PIPELINE` bit-exactly. Finally, the latency histogram the
//! whole layer leans on is exercised property-style: merges commute and
//! `record` accepts the entire `u64` domain.

use std::path::{Path, PathBuf};

use crossbeam::channel::Receiver;
use proptest::prelude::*;

use onesql::connect::{session, MetricKind, MetricRow, SinkEvent};
use onesql::core::observe::Histogram;
use onesql::{ChannelPublisher, SqlPipeline, StatementResult};
use onesql_nexmark::queries;
use onesql_types::{row, Ts};

const EVENTS: u64 = 3_000;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("onesql_observability")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The sharded NEXMark Q7 pipeline from `tests/durable_checkpoint.rs`,
/// writing a transactional file sink (so kill → restore is exercised on
/// the same artifact the durability suite pins).
fn q7_script(sink_path: &Path) -> String {
    format!(
        "SET workers = 2;
         SET batch_size = 64;
         SET max_batch = 128;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = {EVENTS}, partitions = 4);
         CREATE SINK out WITH (connector = 'file', path = '{}', transactional = TRUE);
         INSERT INTO out {} EMIT STREAM;",
        sink_path.display(),
        queries::Q7
    )
}

fn assemble(sink_path: &Path) -> (onesql::Session, SqlPipeline) {
    let mut s = session();
    let pipeline = s
        .execute_script(&q7_script(sink_path))
        .unwrap()
        .into_pipeline()
        .unwrap();
    (s, pipeline)
}

fn step_until(pipeline: &mut SqlPipeline, events: u64) {
    while pipeline.events_in() < events {
        pipeline.step().unwrap();
    }
}

/// `vectorized_rounds` / `fallback_rounds` come from what the workers say
/// they fed at the drain barrier, inline or threaded — not from the
/// `vectorize` knob: a stream-stream join cannot batch, so its rounds are
/// fallback rounds on either worker set.
#[test]
fn round_counters_report_what_the_workers_fed() {
    for workers in [1usize, 2] {
        let mut s = session();
        let mut pipeline = s
            .execute_script(&format!(
                "SET workers = {workers};
                 CREATE PARTITIONED SOURCE nex
                   WITH (connector = 'nexmark', seed = 7, events = 2000, partitions = 2);
                 CREATE SINK out WITH (connector = 'changelog');
                 INSERT INTO out {} EMIT STREAM;",
                queries::Q3
            ))
            .unwrap()
            .into_pipeline()
            .unwrap();
        assert_eq!(pipeline.workers(), workers);
        let metrics = pipeline.run().unwrap();
        assert!(
            metrics.fallback_rounds > 0,
            "{workers} worker(s): a join feeds per-row: {metrics:?}"
        );
        assert!(metrics.fallback_rounds <= metrics.rounds);
    }
}

/// `version_counters` is the size of the `ver` bookkeeping: on a projection
/// like Q1, whose grouping is its own event time, one counter per distinct
/// `dateTime` the sink received.
#[test]
fn version_counters_count_the_event_times_the_sink_saw() {
    let dir = scratch_dir("version_counters");
    for workers in [1usize, 2] {
        let path = dir.join(format!("q1-{workers}.csv"));
        let mut s = session();
        let mut pipeline = s
            .execute_script(&format!(
                "SET workers = {workers};
                 CREATE PARTITIONED SOURCE nex
                   WITH (connector = 'nexmark', seed = 7, events = 2000, partitions = 2);
                 CREATE SINK out WITH (connector = 'file', path = '{}');
                 INSERT INTO out {} EMIT STREAM;",
                path.display(),
                queries::Q1
            ))
            .unwrap()
            .into_pipeline()
            .unwrap();
        let rows = pipeline.run().unwrap().render_rows();
        let gauge = rows.iter().find(|r| r.name == "version_counters").unwrap();
        assert_eq!(gauge.kind, MetricKind::Gauge);

        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let at = header
            .iter()
            .position(|name| name.eq_ignore_ascii_case("datetime"))
            .unwrap();
        let times: std::collections::HashSet<&str> =
            lines.map(|line| line.split(',').nth(at).unwrap()).collect();
        assert!(times.len() > 100, "{workers} worker(s)");
        assert_eq!(gauge.value, times.len() as i64, "{workers} worker(s)");
    }
}

/// Run `sql` over 20 000 NEXMark events and read back `(events_in,
/// retained_rows, retained_bytes)` from the rendered metric rows, the
/// vocabulary `SHOW PIPELINES`, `EXPLAIN ANALYZE` and the `metrics`
/// connector share.
fn retained(knobs: &str, sql: &str) -> (i64, i64, i64) {
    let mut s = session();
    let mut pipeline = s
        .execute_script(&format!(
            "{knobs}
             CREATE PARTITIONED SOURCE nex
               WITH (connector = 'nexmark', seed = 7, events = 20000, partitions = 2);
             CREATE SINK out WITH (connector = 'changelog');
             INSERT INTO out {sql};"
        ))
        .unwrap()
        .into_pipeline()
        .unwrap();
    let rows = pipeline.run().unwrap().render_rows();
    let gauge = |name: &str| {
        let row = rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(row.kind, MetricKind::Gauge, "{name}");
        row.value
    };
    let events_in = rows.iter().find(|r| r.name == "events_in").unwrap().value;
    (events_in, gauge("retained_rows"), gauge("retained_bytes"))
}

/// `retained_rows` / `retained_bytes` size the result changelog the driver
/// keeps for `table()` and `table_at`: typed columns, so four 8-byte
/// columns, a ptime and a diff come to at most 64 bytes a row.
#[test]
fn four_int_columns_are_retained_in_at_most_64_bytes_a_row() {
    let (_, rows, bytes) = retained(
        "SET workers = 2;",
        "SELECT auction, bidder, price, price * 89 / 100 FROM Bid",
    );
    assert!(rows > 16_000, "{rows} rows");
    assert!(bytes <= 64 * rows, "{bytes} bytes for {rows} rows");
}

/// A 1 % filter over 4 096-row batches keeps what passes, not the batch
/// it was selected from: the bytes follow the rows kept, far below one a
/// row read.
#[test]
fn a_selective_filter_retains_what_it_keeps_not_what_it_reads() {
    let (read, rows, bytes) = retained(
        "SET workers = 1; SET batch_size = 4096; SET max_batch = 4096;",
        "SELECT auction, price FROM Bid WHERE price % 100 = 0",
    );
    assert!(rows > 0 && rows * 50 < read, "{rows} of {read} rows kept");
    assert!(bytes <= 96 * rows, "{bytes} bytes for {rows} rows");
    assert!(bytes < read, "{bytes} bytes for {read} rows read");
}

/// The counters whose values are determined by the *data* alone —
/// identical between an uninterrupted run and a kill/restore run.
/// Scheduling-shaped metrics (rounds, batch sizes, latency histograms)
/// legitimately differ between incarnations and are excluded.
fn data_rows(rows: &[MetricRow]) -> Vec<(String, i64)> {
    rows.iter()
        .filter(|r| {
            matches!(r.name.as_str(), "events_in" | "events_out" | "bytes_in")
                || (r.name.starts_with("source.")
                    && (r.name.ends_with(".rows") || r.name.ends_with(".bytes")))
        })
        .map(|r| (r.name.clone(), r.value))
        .collect()
}

// ---------------------------------------------------------------------------
// The acceptance bar: pure-SQL observation of a live pipeline.
// ---------------------------------------------------------------------------

#[test]
fn sql_observes_a_live_nexmark_q7_pipeline() {
    // One script defines *both* pipelines: Q7 itself, and an observer
    // whose source is the engine's own telemetry. The observer's query
    // is ordinary SQL over an ordinary stream.
    let mut s = session();
    let script = format!(
        "SET workers = 2;
         SET batch_size = 64;
         SET max_batch = 128;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = {EVENTS}, partitions = 4);
         CREATE SINK q7_out WITH (connector = 'changelog');
         INSERT INTO q7_out {} EMIT STREAM;
         CREATE SOURCE sys_metrics WITH (connector = 'metrics', pipelines = 'q7_out');
         CREATE SINK watch WITH (connector = 'channel', capacity = 65536);
         INSERT INTO watch
           SELECT mtime, value FROM sys_metrics WHERE metric = 'events_in'
           EMIT STREAM;",
        queries::Q7
    );
    let mut pipelines = s.execute_script(&script).unwrap().pipelines();
    assert_eq!(pipelines.len(), 2, "the script assembles two pipelines");
    let mut observer = pipelines.pop().unwrap();
    let mut q7 = pipelines.pop().unwrap();
    assert_eq!(
        (q7.workers(), observer.workers()),
        (2, 2),
        "SET workers applies to both"
    );
    let watch = s
        .take_handle::<Receiver<SinkEvent>>("watch")
        .expect("the channel sink exports its receiver");

    // Interleave: the observer polls the hub while Q7 is mid-flight.
    while q7.events_in() < EVENTS {
        q7.step().unwrap();
        observer.step().unwrap();
    }
    q7.run().unwrap(); // drain + finish: publishes the final snapshot
    observer.run().unwrap(); // sees finished=true and completes

    let mut observed: Vec<i64> = Vec::new();
    while let Ok(event) = watch.try_recv() {
        if let SinkEvent::Rows(rows) = event {
            for r in &rows {
                assert!(!r.undo, "the metric stream is insert-only");
                observed.push(r.row.values()[1].as_int().unwrap());
            }
        }
    }
    assert!(
        observed.len() > 1,
        "more than one snapshot observed: {observed:?}"
    );
    assert!(
        observed.windows(2).all(|w| w[0] <= w[1]),
        "events_in is monotone: {observed:?}"
    );
    assert!(
        observed[0] < EVENTS as i64,
        "the first observation caught the pipeline mid-flight: {observed:?}"
    );
    assert_eq!(
        *observed.last().unwrap(),
        EVENTS as i64,
        "the last observation is the final total"
    );
}

// ---------------------------------------------------------------------------
// SHOW PIPELINES: one row set per live pipeline, both driver kinds.
// ---------------------------------------------------------------------------

#[test]
fn show_pipelines_reports_plain_and_sharded_drivers() {
    let mut s = session();
    let script = format!(
        "CREATE SOURCE S (t TIMESTAMP, v INT, WATERMARK FOR t)
           WITH (connector = 'channel', capacity = 32);
         CREATE SINK plain_out WITH (connector = 'changelog');
         INSERT INTO plain_out SELECT v FROM S EMIT STREAM;
         SET workers = 2;
         SET batch_size = 64;
         SET max_batch = 128;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = {EVENTS}, partitions = 4);
         CREATE SINK sharded_out WITH (connector = 'changelog');
         INSERT INTO sharded_out {} EMIT STREAM;",
        queries::Q7
    );
    let mut pipelines = s.execute_script(&script).unwrap().pipelines();
    let mut sharded = pipelines.pop().unwrap();
    let mut plain = pipelines.pop().unwrap();

    // Run the plain one to completion, step the sharded one mid-flight,
    // then hand both to the session and ask in SQL.
    let publishers = s
        .take_handle::<Vec<ChannelPublisher>>("S")
        .expect("the channel source exports its publishers");
    for i in 0..10i64 {
        publishers[0].insert(Ts(i), row!(Ts(i), i)).unwrap();
    }
    publishers[0].finish().unwrap();
    plain.run().unwrap();
    step_until(&mut sharded, EVENTS / 2);
    s.adopt_pipeline(plain).unwrap();
    s.adopt_pipeline(sharded).unwrap();

    let StatementResult::Pipelines(infos) = s.execute("SHOW PIPELINES").unwrap() else {
        panic!("expected Pipelines");
    };
    assert_eq!(infos.len(), 2);
    let plain_info = infos.iter().find(|i| i.name == "plain_out").unwrap();
    let sharded_info = infos.iter().find(|i| i.name == "sharded_out").unwrap();
    assert_eq!((plain_info.workers, sharded_info.workers), (1, 2));

    let events_in = |rows: &[MetricRow]| {
        rows.iter()
            .find(|r| r.name == "events_in")
            .map(|r| (r.kind, r.value))
            .unwrap()
    };
    let (kind, fed) = events_in(&plain_info.rows);
    assert_eq!(kind, MetricKind::Counter);
    assert_eq!(fed, 10, "the finished plain pipeline's count is final");
    let (_, mid) = events_in(&sharded_info.rows);
    assert!(
        mid >= (EVENTS / 2) as i64 && mid < EVENTS as i64,
        "the sharded pipeline is mid-flight: {mid}"
    );
    // The per-source breakdown aggregates a partitioned source into one
    // entry, and its row count matches the pipeline total (Q7 has a
    // single input).
    let source_rows: Vec<&MetricRow> = sharded_info
        .rows
        .iter()
        .filter(|r| r.name.starts_with("source.") && r.name.ends_with(".rows"))
        .collect();
    assert_eq!(source_rows.len(), 1);
    assert_eq!(source_rows[0].value, mid);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE: the plan, plus metrics from actually running it.
// ---------------------------------------------------------------------------

#[test]
fn explain_analyze_runs_the_query_and_reports_metrics() {
    let mut s = session();
    s.execute("CREATE SOURCE nex WITH (connector = 'nexmark', seed = 3, events = 500)")
        .unwrap();
    let result = s
        .execute("EXPLAIN ANALYZE SELECT auction, price FROM Bid WHERE price > 0 EMIT STREAM")
        .unwrap();
    let StatementResult::Analyzed { plan, rows } = result else {
        panic!("expected Analyzed");
    };
    assert!(plan.contains("Scan"), "{plan}");
    let events_in = rows.iter().find(|r| r.name == "events_in").unwrap();
    assert!(
        events_in.value > 0,
        "EXPLAIN ANALYZE ran the pipeline for real"
    );
    assert!(
        rows.iter().any(|r| r.name == "round_micros_count"),
        "latency histograms are part of the report"
    );

    // The throwaway run must not disturb the session: the same source
    // still feeds an ordinary pipeline afterwards.
    let mut pipeline = s
        .execute_script(
            "CREATE SINK out WITH (connector = 'changelog');
             INSERT INTO out SELECT auction FROM Bid EMIT STREAM;",
        )
        .unwrap()
        .into_pipeline()
        .unwrap();
    let metrics = pipeline.run().unwrap();
    assert!(metrics.events_in > 0);
}

#[test]
fn explain_analyze_requires_a_fed_stream_and_leaves_the_session_usable() {
    let mut s = session();
    s.execute("CREATE STREAM S (t TIMESTAMP, v INT, WATERMARK FOR t)")
        .unwrap();
    let err = s
        .execute("EXPLAIN ANALYZE SELECT v FROM S EMIT STREAM")
        .unwrap_err()
        .to_string();
    assert!(err.contains("no CREATE SOURCE feeds"), "{err}");

    // The failure is clean: the session still executes statements.
    s.execute("CREATE SOURCE nex WITH (connector = 'nexmark', seed = 1, events = 10)")
        .unwrap();
    let result = s
        .execute("EXPLAIN ANALYZE SELECT auction FROM Bid EMIT STREAM")
        .unwrap();
    assert!(matches!(result, StatementResult::Analyzed { .. }));
}

// ---------------------------------------------------------------------------
// Kill → RESTORE PIPELINE: data-determined counters continue monotonically
// and end exactly where an uninterrupted run ends.
// ---------------------------------------------------------------------------

#[test]
fn metrics_survive_kill_and_restore() {
    let dir = scratch_dir("metrics-restore");
    let store = dir.join("store");
    let reference = dir.join("reference.csv");
    let recovered = dir.join("recovered.csv");

    // The oracle: one uninterrupted run's final metrics.
    let (_s, mut oracle) = assemble(&reference);
    oracle.run().unwrap();
    let expected = oracle.metrics();
    assert_eq!(expected.events_in, EVENTS);

    // Incarnation 1: checkpoint mid-stream via SQL (so the persist cost
    // lands in the pipeline's own metrics), keep running, get killed.
    let (mut s1, mut victim) = assemble(&recovered);
    step_until(&mut victim, EVENTS / 3);
    // Mid-run, `events_out` counts the released prefix: with two workers
    // and a source that is never idle, the last round's output is still
    // owed to the sinks. The checkpoint releases it before it snapshots.
    let released = victim.metrics().events_out;
    s1.adopt_pipeline(victim).unwrap();
    s1.execute(&format!("CHECKPOINT PIPELINE out TO '{}'", store.display()))
        .unwrap();
    let StatementResult::Pipelines(infos) = s1.execute("SHOW PIPELINES").unwrap() else {
        panic!("expected Pipelines");
    };
    let checkpoints = infos[0]
        .rows
        .iter()
        .find(|r| r.name == "checkpoints")
        .unwrap();
    assert_eq!(
        checkpoints.value, 1,
        "the SQL checkpoint shows up in the pipeline's own counters"
    );
    let mut victim = s1.take_pipeline("out").unwrap();
    let at_checkpoint = victim.metrics();
    assert!(
        released < at_checkpoint.events_out,
        "the checkpoint released the deferred round"
    );
    step_until(&mut victim, EVENTS / 2); // rows past the checkpoint: discarded
    drop(victim);
    drop(s1); // kill

    // Incarnation 2: fresh session, RESTORE, and the counters resume at
    // the checkpoint — not at zero, not at the kill point.
    let mut s2 = session();
    let script = format!(
        "{} RESTORE PIPELINE out FROM '{}';",
        q7_script(&recovered),
        store.display()
    );
    let mut restored = s2.execute_script(&script).unwrap().into_pipeline().unwrap();
    let resumed = restored.metrics();
    assert_eq!(resumed.restores, 1);
    assert_eq!(resumed.checkpoint_epoch, 1);
    assert_eq!(resumed.events_in, at_checkpoint.events_in);
    assert_eq!(resumed.events_out, at_checkpoint.events_out);
    assert_eq!(resumed.bytes_in, at_checkpoint.bytes_in);
    for (r, c) in resumed.sources.iter().zip(&at_checkpoint.sources) {
        assert_eq!(
            (r.events, r.bytes),
            (c.events, c.bytes),
            "source {}",
            r.name
        );
    }

    // Run to completion: the data-determined counters land exactly on
    // the uninterrupted run's totals (monotone continuation, no double
    // counting of the replayed span).
    restored.run().unwrap();
    let finished = restored.metrics();
    assert!(finished.events_in >= resumed.events_in, "monotone");
    assert_eq!(
        data_rows(&finished.render_rows()),
        data_rows(&expected.render_rows())
    );

    // And the SQL view agrees with the Rust view.
    s2.adopt_pipeline(restored).unwrap();
    let StatementResult::Pipelines(infos) = s2.execute("SHOW PIPELINES").unwrap() else {
        panic!("expected Pipelines");
    };
    assert_eq!(
        data_rows(&infos[0].rows),
        data_rows(&expected.render_rows())
    );
}

// ---------------------------------------------------------------------------
// Hub ordering is pinned: snapshots (and so SHOW PIPELINES, the metrics
// connector, and every renderer above them) list pipelines in label
// order, regardless of publication order.
// ---------------------------------------------------------------------------

#[test]
fn hub_snapshots_are_ordered_by_label_not_publication() {
    use onesql::connect::PipelineMetrics;
    use onesql::core::observe::hub;

    let labels = ["zz_ordering_pin", "aa_ordering_pin", "mm_ordering_pin"];
    for label in labels {
        hub().publish(label, Ts(1), true, PipelineMetrics::default());
    }
    let seen: Vec<String> = hub()
        .snapshots()
        .into_iter()
        .map(|s| s.pipeline)
        .filter(|p| p.ends_with("_ordering_pin"))
        .collect();
    assert_eq!(
        seen,
        ["aa_ordering_pin", "mm_ordering_pin", "zz_ordering_pin"],
        "snapshot order is the sorted label order, not publication order"
    );
    // The full listing is sorted too — the invariant SHOW PIPELINES and
    // the `metrics` connector lean on for deterministic output.
    let all: Vec<String> = hub().snapshots().into_iter().map(|s| s.pipeline).collect();
    let mut sorted = all.clone();
    sorted.sort();
    assert_eq!(all, sorted);
    for label in labels {
        hub().clear(label);
    }
}

// ---------------------------------------------------------------------------
// The histogram under the whole layer: property tests.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recording values in any order, or recording into shards and
    /// merging (in either order), yields the same histogram — the
    /// property merging per-worker histograms depends on.
    #[test]
    fn histogram_merge_is_order_independent(
        a in prop::collection::vec(any::<u64>(), 0..64),
        b in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut all = Histogram::default();
        for &v in a.iter().chain(b.iter()) {
            all.record(v);
        }
        let (mut ha, mut hb) = (Histogram::default(), Histogram::default());
        for &v in &a { ha.record(v); }
        for &v in &b { hb.record(v); }

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        for merged in [&ab, &ba] {
            prop_assert_eq!(merged.bucket_counts(), all.bucket_counts());
            prop_assert_eq!(merged.count(), all.count());
            prop_assert_eq!(merged.sum(), all.sum());
            prop_assert_eq!(merged.min(), all.min());
            prop_assert_eq!(merged.max(), all.max());
        }
    }

    /// `record` accepts the full u64 domain without panicking, and every
    /// value lands in the bucket whose bounds contain it.
    #[test]
    fn histogram_record_never_panics_and_buckets_contain_their_values(
        values in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
            let idx = Histogram::bucket_of(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            prop_assert!(lo <= v && v <= hi, "{v} outside bucket {idx}: [{lo}, {hi}]");
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.quantile(1.0), h.quantile(0.5).max(h.quantile(1.0)), "quantiles are monotone");
    }
}
