//! Durable checkpoints, black-box: a pipeline killed at any point and
//! restored from its on-disk checkpoint — in a *fresh* `Session`, purely
//! via `RESTORE PIPELINE ... FROM '<path>'` — must leave sink files
//! byte-identical to an uninterrupted run (cf. black-box consistency
//! checking: the only oracle is observable output, not internal state).
//! The kill/restore *choreography* itself lives in `onesql_checker`'s
//! nemesis (see `docs/CHECKING.md`); this file keeps the SQL statement
//! surface (`CHECKPOINT PIPELINE` / `RESTORE PIPELINE` results and
//! on-disk artifacts) and every way a checkpoint artifact can be damaged
//! — truncation, bit flips, wrong magic, future versions, a missing
//! manifest, restoring into the wrong pipeline or under changed schemas
//! — which must surface as a typed error, never a panic and never
//! silent duplication.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use onesql::connect::session;
use onesql::{PipelineCheckpoint, SqlPipeline, StatementResult};
use onesql_nexmark::queries;
use onesql_state::Codec;
use onesql_time::Watermark;
use onesql_tvr::{Change, TimedChange};
use onesql_types::{Row, Ts, Value};

const EVENTS: u64 = 3_000;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("onesql_durable_ckpt")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The pure-SQL NEXMark Q7 pipeline into a transactional file sink.
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

/// Assemble the Q7 pipeline in a fresh session.
fn assemble(sink_path: &Path) -> (onesql::Session, SqlPipeline) {
    let mut s = session();
    let pipeline = s
        .execute_script(&q7_script(sink_path))
        .unwrap()
        .into_pipeline()
        .unwrap();
    assert_eq!(pipeline.workers(), 2, "SET workers applied");
    (s, pipeline)
}

/// Step the pipeline until it has ingested at least `events`.
fn step_until(pipeline: &mut SqlPipeline, events: u64) {
    while pipeline.events_in() < events {
        pipeline.step().unwrap();
    }
}

// ---------------------------------------------------------------------------
// The acceptance bar: kill → RESTORE in a fresh session → byte-identical
// sink files. The interleavings (where the checkpoint lands, how much
// uncommitted staging the kill discards, how many kills) come from the
// checker's seeded nemesis; the oracles — replay-identical effective
// history, byte-equal artifacts, stable AS OF probes, balanced
// retractions, monotone watermarks — all must hold.
// ---------------------------------------------------------------------------

#[test]
fn q7_kill_restore_is_replay_identical_under_the_nemesis() {
    for seed in [1, 2] {
        let mut scenario = onesql_checker::NexmarkScenario::by_name("q7", EVENTS);
        let report = onesql_checker::check_seeded(&mut scenario, seed);
        assert!(
            !report.reference.artifacts[0].1.is_empty(),
            "Q7 produced no output"
        );
    }
}

/// The SQL statement surface the checker drives through the API:
/// `CHECKPOINT PIPELINE` on an adopted pipeline, the on-disk store
/// layout, and scripted `RESTORE PIPELINE` recovery in a fresh session.
#[test]
fn checkpoint_and_restore_ddl_round_trip() {
    let dir = scratch_dir("ddl");
    let store = dir.join("store");
    let reference = dir.join("reference.csv");
    let recovered = dir.join("recovered.csv");

    let (_s, mut pipeline) = assemble(&reference);
    pipeline.run().unwrap();
    let expected = std::fs::read(&reference).unwrap();
    assert!(
        !dir.join("reference.csv.txn").exists(),
        "a finished transactional sink removes its sidecar"
    );

    let (mut s1, mut victim) = assemble(&recovered);
    step_until(&mut victim, EVENTS / 3);
    s1.adopt_pipeline(victim).unwrap();
    let result = s1
        .execute(&format!("CHECKPOINT PIPELINE out TO '{}'", store.display()))
        .unwrap();
    let StatementResult::Checkpointed { pipeline, epoch } = result else {
        panic!("expected Checkpointed");
    };
    assert_eq!((pipeline.as_str(), epoch), ("out", 1));
    assert!(store.join("MANIFEST").exists());
    assert!(store.join("epoch-1.ckpt").exists());
    let mut victim = s1.take_pipeline("out").unwrap();
    // Uncommitted staging past the checkpoint; the restore discards it.
    step_until(&mut victim, EVENTS / 2);
    drop(victim); // kill
    drop(s1); // the whole process is gone

    let mut s2 = session();
    let script = format!(
        "{} RESTORE PIPELINE out FROM '{}';",
        q7_script(&recovered),
        store.display()
    );
    let outcome = s2.execute_script(&script).unwrap();
    assert!(matches!(
        outcome.results.last(),
        Some(StatementResult::Restored { epoch: 1, .. })
    ));
    let mut restored = outcome.into_pipeline().unwrap();
    restored.run().unwrap();

    assert_eq!(
        std::fs::read(&recovered).unwrap(),
        expected,
        "the killed-and-restored sink file differs from the \
         uninterrupted run's"
    );
    assert!(
        !dir.join("recovered.csv.txn").exists(),
        "finish removes the staging sidecar"
    );
}

// ---------------------------------------------------------------------------
// Identity checks: wrong pipeline, changed schemas.
// ---------------------------------------------------------------------------

#[test]
fn restore_refuses_the_wrong_pipeline() {
    let dir = scratch_dir("wrong-pipeline");
    let store = dir.join("store");
    let (s, mut pipeline) = assemble(&dir.join("a.csv"));
    pipeline.step().unwrap();
    pipeline.checkpoint_to(&store).unwrap();
    drop(pipeline);
    drop(s);

    // Same definitions, but the INSERT targets a different sink, so the
    // pipeline id differs: the store must refuse it.
    let mut s = session();
    s.execute_script(
        "SET workers = 2;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = 100, partitions = 4);
         CREATE SINK elsewhere WITH (connector = 'changelog');",
    )
    .unwrap();
    let err = s
        .execute_script(&format!(
            "INSERT INTO elsewhere {} EMIT STREAM;
             RESTORE PIPELINE elsewhere FROM '{}';",
            queries::Q7,
            store.display()
        ))
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("belongs to pipeline 'out'") && err.contains("'elsewhere'"),
        "{err}"
    );
}

#[test]
fn restore_refuses_changed_schema_naming_the_relation() {
    let dir = scratch_dir("schema-drift");
    let store = dir.join("store");

    let mut s = session();
    let mut pipeline = s
        .execute_script(
            "SET workers = 2;
             CREATE PARTITIONED SOURCE S (t TIMESTAMP, v INT, WATERMARK FOR t)
               WITH (connector = 'channel', partitions = 2);
             CREATE SINK out WITH (connector = 'changelog');
             INSERT INTO out SELECT v FROM S EMIT STREAM;",
        )
        .unwrap()
        .into_pipeline()
        .unwrap();
    pipeline.checkpoint_to(&store).unwrap();
    drop(pipeline);
    drop(s);

    // The "same" script in a fresh process, but S's column is now FLOAT:
    // the manifest's schema fingerprint catches the drift and names S.
    let mut s = session();
    let err = s
        .execute_script(&format!(
            "SET workers = 2;
             CREATE PARTITIONED SOURCE S (t TIMESTAMP, v FLOAT, WATERMARK FOR t)
               WITH (connector = 'channel', partitions = 2);
             CREATE SINK out WITH (connector = 'changelog');
             INSERT INTO out SELECT v FROM S EMIT STREAM;
             RESTORE PIPELINE out FROM '{}';",
            store.display()
        ))
        .unwrap_err()
        .to_string();
    assert!(err.contains("relation 's'"), "{err}");
    assert!(err.contains("different"), "{err}");
}

#[test]
fn restore_over_a_plain_channel_source_is_refused_without_draining_it() {
    // A channel's pre-crash events exist nowhere to replay from. Seeking
    // the fresh instance by poll-and-discard would instead eat the *live*
    // input: up to CHECKPOINTED of the events published below.
    const SCRIPT: &str = "CREATE SOURCE S (t TIMESTAMP, v INT, WATERMARK FOR t)
           WITH (connector = 'channel');
         CREATE SINK out WITH (connector = 'changelog');
         INSERT INTO out SELECT v FROM S EMIT STREAM;";
    const CHECKPOINTED: u64 = 5;
    const LIVE: usize = 8;
    let store = scratch_dir("plain-channel").join("store");
    let assemble = || {
        let mut s = session();
        let pipeline = s.execute_script(SCRIPT).unwrap().into_pipeline().unwrap();
        let publisher = s
            .take_handle::<Vec<onesql::ChannelPublisher>>("S")
            .expect("publishers exported")
            .remove(0);
        (s, pipeline, publisher)
    };
    let publish = |publisher: &onesql::ChannelPublisher, n: usize| {
        for i in 0..n as i64 {
            publisher
                .insert(Ts(i), onesql_types::row!(Ts(i), i))
                .unwrap();
        }
    };

    let (mut s1, mut victim, publisher) = assemble();
    publish(&publisher, CHECKPOINTED as usize);
    step_until(&mut victim, CHECKPOINTED);
    s1.adopt_pipeline(victim).unwrap();
    s1.execute(&format!("CHECKPOINT PIPELINE out TO '{}'", store.display()))
        .unwrap();
    drop(s1); // kill

    let (mut s2, fresh, publisher) = assemble();
    s2.adopt_pipeline(fresh).unwrap();
    publish(&publisher, LIVE);
    let err = s2
        .execute(&format!("RESTORE PIPELINE out FROM '{}'", store.display()))
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("channel:S") && err.contains("not replayable"),
        "{err}"
    );
    assert_eq!(
        publisher.queued(),
        LIVE,
        "the refused restore polled nothing"
    );
}

// ---------------------------------------------------------------------------
// Damaged artifacts surface as typed errors through the SQL path.
// ---------------------------------------------------------------------------

#[test]
fn damaged_checkpoint_files_error_descriptively_via_restore() {
    let dir = scratch_dir("damage");
    let store = dir.join("store");
    let sink = dir.join("x.csv");
    let (_s, mut pipeline) = assemble(&sink);
    step_until(&mut pipeline, EVENTS / 4);
    pipeline.checkpoint_to(&store).unwrap();
    drop(pipeline);
    let epoch_file = store.join("epoch-1.ckpt");
    let pristine = std::fs::read(&epoch_file).unwrap();

    let restore = |msg: &str| {
        let mut s = session();
        let script = format!(
            "{} RESTORE PIPELINE out FROM '{}';",
            q7_script(&sink),
            store.display()
        );
        let err = s.execute_script(&script).unwrap_err().to_string();
        assert!(err.contains(msg), "wanted '{msg}' in: {err}");
    };

    // Bit-flipped body: CRC catches it.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&epoch_file, &flipped).unwrap();
    restore("CRC");

    // Truncated file.
    std::fs::write(&epoch_file, &pristine[..pristine.len() / 2]).unwrap();
    restore("truncated");

    // Wrong magic (not a checkpoint file at all).
    let mut foreign = pristine.clone();
    foreign[..4].copy_from_slice(b"ELFX");
    std::fs::write(&epoch_file, &foreign).unwrap();
    restore("magic");

    // A version from the future.
    let mut future = pristine.clone();
    future[4] = 0x7F;
    std::fs::write(&epoch_file, &future).unwrap();
    restore("version");

    // Intact again: the restore path itself still works...
    std::fs::write(&epoch_file, &pristine).unwrap();
    {
        let mut s = session();
        let script = format!(
            "{} RESTORE PIPELINE out FROM '{}';",
            q7_script(&sink),
            store.display()
        );
        s.execute_script(&script).unwrap();
    }

    // ...until the manifest disappears.
    std::fs::remove_file(store.join("MANIFEST")).unwrap();
    restore("no checkpoint manifest");
}

#[test]
fn checkpoint_statement_requires_a_known_pipeline() {
    let mut s = session();
    let err = s
        .execute("CHECKPOINT PIPELINE nope TO '/tmp/anywhere'")
        .unwrap_err()
        .to_string();
    assert!(err.contains("no such pipeline"), "{err}");
}

// ---------------------------------------------------------------------------
// Every pipeline checkpoints: a non-partitioned source, one inline worker.
// ---------------------------------------------------------------------------

/// A windowed `GROUP BY`: its output retracts, so it needs a changelog.
const WINDOWED_COUNTS: &str = "SELECT auction, wend, COUNT(*), SUM(price)
       FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
                   dur => INTERVAL '10' SECOND)
       GROUP BY auction, wend EMIT STREAM";

/// A filter: its output only inserts, so an appends-mode sink takes it.
const HIGH_BIDS: &str = "SELECT auction, price, bidtime FROM Bid WHERE price > 16";

/// A non-partitioned CSV `file` source — the columnar poll path — through
/// `query` into the sink `WITH (sink)`.
fn csv_script(input: &Path, sink: &str, query: &str) -> String {
    format!(
        "SET batch_size = 32;
         SET max_batch = 32;
         CREATE SOURCE Bid (auction INT, price INT, bidtime TIMESTAMP, WATERMARK FOR bidtime)
           WITH (connector = 'file', path = '{}');
         CREATE SINK out WITH ({sink});
         INSERT INTO out {query};",
        input.display(),
    )
}

/// Rows of [`write_bids`]'s input.
const ROWS: u64 = 600;

/// Bids in CSV for [`csv_script`]'s source, in `dir`.
fn write_bids(dir: &Path) -> PathBuf {
    let input = dir.join("bids.csv");
    let csv: String = (0..ROWS)
        .map(|i| format!("{},{},{}\n", i % 7, 10 + i % 13, i * 250))
        .collect();
    std::fs::write(&input, csv).unwrap();
    input
}

/// Assemble [`csv_script`] in a fresh session.
fn assemble_csv(script: &str) -> (onesql::Session, SqlPipeline) {
    let mut s = session();
    let pipeline = s.execute_script(script).unwrap().into_pipeline().unwrap();
    assert_eq!(pipeline.workers(), 1);
    (s, pipeline)
}

/// Run the CSV pipeline once uninterrupted, and once checkpointed at a
/// third of the input, killed at half and restored in a fresh session:
/// the two sink files must be byte-identical.
fn assert_kill_restore_is_byte_identical(name: &str, sink: &str, query: &str) {
    let dir = scratch_dir(name);
    let input = write_bids(&dir);
    let (store, reference, recovered) = (
        dir.join("store"),
        dir.join("reference.out"),
        dir.join("recovered.out"),
    );
    let script = |out: &Path| {
        let sink = format!("connector = 'file', path = '{}'{sink}", out.display());
        csv_script(&input, &sink, query)
    };
    let assemble = |out: &Path| assemble_csv(&script(out));

    let (_s, mut straight) = assemble(&reference);
    let metrics = straight.run().unwrap();
    assert_eq!(metrics.events_in, ROWS);
    assert!(metrics.vectorized_rounds > 0 && metrics.fallback_rounds == 0);
    let expected = std::fs::read(&reference).unwrap();

    let (mut s1, mut victim) = assemble(&recovered);
    step_until(&mut victim, ROWS / 3);
    // Mid-run `AS OF` probe below the clock: stable across re-reads.
    let probe_at = victim.clock() - onesql_types::Duration(1);
    let probed = victim.table_at(probe_at).unwrap();
    assert!(!probed.is_empty());
    s1.adopt_pipeline(victim).unwrap();
    let result = s1
        .execute(&format!("CHECKPOINT PIPELINE out TO '{}'", store.display()))
        .unwrap();
    assert!(matches!(
        result,
        StatementResult::Checkpointed { epoch: 1, .. }
    ));
    let mut victim = s1.take_pipeline("out").unwrap();
    step_until(&mut victim, ROWS / 2);
    assert_eq!(victim.table_at(probe_at).unwrap(), probed);
    drop(victim); // kill
    drop(s1);

    let mut s2 = session();
    let script = format!(
        "{} RESTORE PIPELINE out FROM '{}';",
        script(&recovered),
        store.display()
    );
    let mut restored = s2.execute_script(&script).unwrap().into_pipeline().unwrap();
    assert!(restored.events_in() >= ROWS / 3 && restored.events_in() < ROWS / 2);
    restored.run().unwrap();
    let got = std::fs::read(&recovered).unwrap();
    assert!(
        got == expected,
        "{name}: the killed-and-restored sink file differs from the uninterrupted \
         run's: {} of {} lines, {} of {} bytes",
        got.split(|&b| b == b'\n').count() - 1,
        expected.split(|&b| b == b'\n').count() - 1,
        got.len(),
        expected.len()
    );
}

#[test]
fn plain_csv_pipeline_checkpoints_and_restores_through_sql() {
    // The compatibility key: `TRUE` is what every file sink does.
    assert_kill_restore_is_byte_identical("plain-csv", ", transactional = TRUE", WINDOWED_COUNTS);
}

/// Every `file` sink is two-phase: with default options, without a
/// header, and in JSON-lines in both modes.
#[test]
fn a_file_sink_is_byte_identical_after_restore_whatever_its_options() {
    for (name, sink, query) in [
        ("default-sink", "", WINDOWED_COUNTS),
        ("headerless", ", header = FALSE", WINDOWED_COUNTS),
        ("jsonl-changelog", ", format = 'jsonl'", WINDOWED_COUNTS),
        (
            "jsonl-appends",
            ", format = 'jsonl', mode = 'appends'",
            HIGH_BIDS,
        ),
    ] {
        assert_kill_restore_is_byte_identical(name, sink, query);
    }
}

/// The `changelog` connector writes its file in one phase, so it cannot
/// resume one: a restore into it is refused, naming the connector and
/// pointing to `connector = 'file'`, and what the killed run wrote stays
/// as it was — building the restored sink truncates nothing.
#[test]
fn a_changelog_file_refuses_restore_and_keeps_what_the_killed_run_wrote() {
    let dir = scratch_dir("changelog-file");
    let input = write_bids(&dir);
    let (store, out) = (dir.join("store"), dir.join("changelog.txt"));
    let sink = format!("connector = 'changelog', path = '{}'", out.display());
    let script = csv_script(&input, &sink, WINDOWED_COUNTS);

    let (mut s1, mut victim) = assemble_csv(&script);
    step_until(&mut victim, ROWS / 3);
    s1.adopt_pipeline(victim).unwrap();
    s1.execute(&format!("CHECKPOINT PIPELINE out TO '{}'", store.display()))
        .unwrap();
    let mut victim = s1.take_pipeline("out").unwrap();
    step_until(&mut victim, ROWS / 2);
    drop(victim); // kill
    let written = std::fs::read(&out).unwrap();
    assert!(written.starts_with(b"-- changelog of (auction, wend"));
    assert!(written.len() > 1_000, "the killed run wrote rows");

    let mut s = session();
    let err = s
        .execute_script(&format!(
            "{script} RESTORE PIPELINE out FROM '{}';",
            store.display()
        ))
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("'changelog' connector") && err.contains("connector = 'file'"),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&out).unwrap(),
        written,
        "the file was touched"
    );
}

#[test]
fn transactional_false_is_refused_naming_the_key() {
    let dir = scratch_dir("txn-false");
    let mut s = session();
    let err = s
        .execute(&format!(
            "CREATE SINK out WITH (connector = 'file', path = '{}', transactional = FALSE)",
            dir.join("out.csv").display()
        ))
        .unwrap_err()
        .to_string();
    assert!(err.contains("'transactional'"), "{err}");
}

// ---------------------------------------------------------------------------
// SET: scripts are fully self-contained.
// ---------------------------------------------------------------------------

#[test]
fn set_knobs_configure_later_inserts() {
    let mut s = session();
    let mut pipeline = s
        .execute_script(
            "SET workers = 3;
             SET batch_size = 16;
             SET max_idle_rounds = 50;
             CREATE PARTITIONED SOURCE nex
               WITH (connector = 'nexmark', seed = 1, events = 200, partitions = 2);
             CREATE SINK out WITH (connector = 'changelog');
             INSERT INTO out SELECT auction, price FROM Bid EMIT STREAM;",
        )
        .unwrap()
        .into_pipeline()
        .unwrap();
    assert_eq!(pipeline.workers(), 3, "SET workers applied");
    let batch_size = pipeline.driver_mut().current_batch_size();
    assert_eq!(batch_size, 16, "SET batch_size applied");
    pipeline.run().unwrap();

    let err = s.execute("SET wrokers = 4").unwrap_err().to_string();
    assert!(err.contains("unknown session knob"), "{err}");
    let err = s.execute("SET workers = 0").unwrap_err().to_string();
    assert!(err.contains("at least 1"), "{err}");
}

// ---------------------------------------------------------------------------
// Serialize → deserialize round-trips arbitrary checkpoints.
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    (0i64..5, -1000i64..1000).prop_map(|(kind, v)| match kind {
        0 => Value::Null,
        1 => Value::Bool(v % 2 == 0),
        2 => Value::Int(v),
        3 => Value::str(format!("s{v}")),
        _ => Value::Ts(Ts(v)),
    })
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..4).prop_map(Row::new)
}

fn arb_timed_change() -> impl Strategy<Value = TimedChange> {
    (0i64..10_000, arb_row(), prop::bool::ANY).prop_map(|(ptime, row, insert)| TimedChange {
        ptime: Ts(ptime),
        change: if insert {
            Change::insert(row)
        } else {
            Change::retract(row)
        },
    })
}

fn arb_blob() -> impl Strategy<Value = onesql_state::Checkpoint> {
    prop::collection::vec(0i64..256, 0..48).prop_map(|bytes| {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        onesql_state::Checkpoint(bytes::Bytes::copy_from_slice(&raw))
    })
}

fn arb_checkpoint() -> impl Strategy<Value = PipelineCheckpoint> {
    let cursors = (
        prop::collection::vec(arb_blob(), 1..4),
        prop::collection::vec(prop::collection::vec(0u64..10_000, 1..4), 1..3),
        0i64..100_000,
        1u64..5_000,
        prop::collection::vec(prop::collection::vec(arb_timed_change(), 0..4), 1..4),
        prop::collection::vec((arb_row(), 0u64..50), 0..4),
        1u64..64,
    );
    cursors.prop_map(
        |(workers, offsets, clock, batch, pending, versions, epoch)| {
            let finished = offsets
                .iter()
                .map(|parts| parts.iter().map(|&o| o % 2 == 0).collect())
                .collect();
            let feeders: Vec<Watermark> = offsets
                .iter()
                .flatten()
                .map(|&o| {
                    if o % 7 == 0 {
                        Watermark::MAX
                    } else {
                        Watermark(Ts(o as i64))
                    }
                })
                .collect();
            let source_bytes = offsets
                .iter()
                .map(|parts| parts.iter().map(|&o| o.saturating_mul(16)).collect())
                .collect();
            PipelineCheckpoint {
                workers,
                offsets,
                finished,
                feeders,
                clock: Ts(clock),
                batch_size: batch as usize,
                pending,
                renderer_versions: versions,
                sink_watermark: Watermark(Ts(clock - 2)),
                output_watermark: Watermark(Ts(clock - 1)),
                events_out: clock as u64,
                watermarks_in: batch,
                source_bytes,
                epoch,
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any checkpoint the driver could produce survives the codec
    /// byte-exactly (field by field — `PipelineCheckpoint` is not `Eq`).
    #[test]
    fn checkpoint_serialize_deserialize_round_trips(cp in arb_checkpoint()) {
        let bytes = cp.to_bytes();
        let back = PipelineCheckpoint::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back.workers, &cp.workers);
        prop_assert_eq!(&back.offsets, &cp.offsets);
        prop_assert_eq!(&back.finished, &cp.finished);
        prop_assert_eq!(&back.feeders, &cp.feeders);
        prop_assert_eq!(back.clock, cp.clock);
        prop_assert_eq!(back.batch_size, cp.batch_size);
        prop_assert_eq!(&back.pending, &cp.pending);
        prop_assert_eq!(&back.renderer_versions, &cp.renderer_versions);
        prop_assert_eq!(back.sink_watermark, cp.sink_watermark);
        prop_assert_eq!(back.output_watermark, cp.output_watermark);
        prop_assert_eq!(back.events_out, cp.events_out);
        prop_assert_eq!(back.watermarks_in, cp.watermarks_in);
        prop_assert_eq!(&back.source_bytes, &cp.source_bytes);
        prop_assert_eq!(back.epoch, cp.epoch);
        // And the encoding itself is deterministic.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Decoding arbitrary prefixes of a valid encoding (truncation at
    /// every possible point) errors and never panics.
    #[test]
    fn truncated_checkpoints_never_panic(cp in arb_checkpoint(), cut in 0usize..512) {
        let bytes = cp.to_bytes();
        if cut < bytes.len() {
            prop_assert!(PipelineCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
