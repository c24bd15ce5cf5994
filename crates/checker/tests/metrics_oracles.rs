//! The `metrics` source connector under the checker's oracles — the one
//! connector no consistency test touched before.
//!
//! A labelled NEXMark Q7 pipeline publishes telemetry to the global
//! hub; an observer pipeline reads it back through
//! `CREATE SOURCE … connector = 'metrics'`. The watched pipeline is
//! killed mid-stream and restored from a durable checkpoint (the path
//! `RESTORE PIPELINE … FROM` drives) while the observer keeps running.
//! Oracles:
//!
//! - the watched pipeline's effective history is **replay-identical** to
//!   an uninterrupted run's, and its sink artifact byte-identical;
//! - the observer's watermarks are **monotone** even though the watched
//!   driver's clock rewinds at the restore (the metric stream's
//!   watermark must hold, not regress);
//! - the metric stream stays insert-only (**retraction-balanced** with
//!   zero retractions).

use std::path::{Path, PathBuf};

use onesql_checker::{
    effective_history, replay_identical, retraction_balanced, watermark_monotone,
};
use onesql_connect::{session, SqlPipeline};
use onesql_core::{HistoryEvent, HistoryTap};
use onesql_nexmark::queries;

const EVENTS: u64 = 2_000;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("onesql_checker_metrics")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The watched pipeline: sharded Q7 into a transactional file sink named
/// `q7_out` — the sink name is the hub label the observer subscribes to.
fn q7_script(sink: &Path) -> String {
    format!(
        "SET workers = 2;
         SET batch_size = 16;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 7, events = {EVENTS}, partitions = 4);
         CREATE SINK q7_out
           WITH (connector = 'file', path = '{}', transactional = TRUE);
         INSERT INTO q7_out {} EMIT STREAM;",
        sink.display(),
        queries::Q7
    )
}

/// The observer rides in the same script: the engine's own telemetry as
/// an ordinary stream.
const OBSERVER_SQL: &str = "\
    CREATE SOURCE sys_metrics WITH (connector = 'metrics', pipelines = 'q7_out');
    CREATE SINK watch WITH (connector = 'changelog');
    INSERT INTO watch SELECT mtime, metric, value FROM sys_metrics EMIT STREAM;";

struct RunTaps {
    watched: Vec<HistoryEvent>,
    observer: Vec<HistoryEvent>,
}

/// Interleave the watched pipeline and its observer. When `kill_at` is
/// set, checkpoint the watched pipeline there, stage past the
/// checkpoint, kill it, and restore a fresh incarnation from the store —
/// the observer keeps polling the hub throughout.
fn run_observed(dir: &Path, kill_at: Option<u64>) -> RunTaps {
    let sink = dir.join("out.csv");
    let store = dir.join("store");
    let watched_tap = HistoryTap::new();
    let observer_tap = HistoryTap::new();

    let mut s = session();
    let script = format!("{}\n{OBSERVER_SQL}", q7_script(&sink));
    let mut pipelines = s.execute_script(&script).unwrap().pipelines();
    assert_eq!(pipelines.len(), 2, "the script assembles two pipelines");
    let mut observer = pipelines.pop().unwrap();
    let mut watched = pipelines.pop().unwrap();
    let attach = |pipeline: &mut SqlPipeline, tap: &HistoryTap| {
        let sink = Box::new(tap.clone());
        pipeline.driver_mut().attach_sink(sink).unwrap();
    };
    attach(&mut watched, &watched_tap);
    attach(&mut observer, &observer_tap);

    // Killed incarnations rebuild in their own session — the old one is
    // "a different process" — but the observer keeps the first session's
    // hub cursor: publication seqs are process-wide monotone, so it
    // reads straight across the restore.
    let mut spare_sessions = Vec::new();

    let mut pending_kill = kill_at;
    while watched.events_in() < EVENTS {
        watched.step().unwrap();
        observer.step().unwrap();
        if let Some(at) = pending_kill {
            if watched.events_in() >= at {
                watched.checkpoint_to(&store).unwrap();
                // Uncommitted staging past the checkpoint: the kill
                // discards it, the restore replays it exactly once.
                watched.step().unwrap();
                observer.step().unwrap();
                drop(watched);

                let mut s2 = session();
                let mut restored: SqlPipeline = s2
                    .execute_script(&q7_script(&sink))
                    .unwrap()
                    .into_pipeline()
                    .unwrap();
                // Tap first, so the history records the epoch splice.
                attach(&mut restored, &watched_tap);
                restored.restore_from(&store).unwrap();
                spare_sessions.push(s2);
                watched = restored;
                pending_kill = None;
            }
        }
    }
    watched.run().unwrap();
    observer.run().unwrap(); // sees finished=true and completes
    RunTaps {
        watched: watched_tap.events(),
        observer: observer_tap.events(),
    }
}

#[test]
fn metrics_source_holds_its_oracles_across_restore_pipeline() {
    let ref_dir = scratch_dir("reference");
    let fault_dir = scratch_dir("faulted");

    let reference = run_observed(&ref_dir, None);
    let faulted = run_observed(&fault_dir, Some(EVENTS / 3));

    // The watched pipeline replays identically through the kill, down
    // to the committed sink bytes.
    let effective = effective_history(&faulted.watched);
    let mut violations = replay_identical(&reference.watched, &effective);
    violations.extend(retraction_balanced(&effective));
    assert_eq!(
        std::fs::read(ref_dir.join("out.csv")).unwrap(),
        std::fs::read(fault_dir.join("out.csv")).unwrap(),
        "sink artifacts differ across the kill"
    );

    // The observer never hears time run backwards — not even when the
    // watched driver's clock rewinds at the restore — and the metric
    // stream is insert-only, in both runs.
    for history in [&reference.observer, &faulted.observer] {
        violations.extend(watermark_monotone(history));
        violations.extend(retraction_balanced(history));
        assert!(
            !history
                .iter()
                .any(|e| matches!(e, HistoryEvent::Emitted(sr) if sr.undo)),
            "the metric stream must be insert-only"
        );
        assert!(
            history
                .iter()
                .any(|e| matches!(e, HistoryEvent::Emitted(_))),
            "the observer saw no metric rows"
        );
    }
    assert!(violations.is_empty(), "oracle violations: {violations:#?}");
}
