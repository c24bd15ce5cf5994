//! Durable exactly-once recovery, scripted end to end: a pure-SQL
//! NEXMark pipeline writes a (two-phase) file sink, checkpoints to a
//! durable on-disk store mid-stream, gets "killed" (dropped, session and
//! all), and a **fresh** session restores it purely via
//! `RESTORE PIPELINE ... FROM '<path>'` — producing a sink file
//! byte-identical to an uninterrupted run.
//!
//! Run with: `cargo run --example durable_pipeline`

use std::path::Path;

use onesql::connect::session;
use onesql::StatementResult;

const EVENTS: u64 = 20_000;

/// The whole topology — knobs included — as one SQL script.
fn script(sink: &Path) -> String {
    format!(
        "SET workers = 4;
         SET batch_size = 128;
         SET max_batch = 256;
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 42, events = {EVENTS}, partitions = 4);
         CREATE SINK out WITH (connector = 'file', path = '{}');
         INSERT INTO out
           SELECT auction, price, dateTime FROM Bid WHERE price > 900 EMIT STREAM;",
        sink.display()
    )
}

fn main() {
    let dir = std::env::temp_dir().join(format!("onesql_durable_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.join("checkpoints");

    // Reference: one uninterrupted run.
    let reference = dir.join("reference.csv");
    let mut pipeline = session()
        .execute_script(&script(&reference))
        .expect("script runs")
        .into_pipeline()
        .expect("one INSERT, one pipeline");
    pipeline.run().expect("pipeline runs");
    let expected = std::fs::read(&reference).expect("reference output");
    println!(
        "uninterrupted: {EVENTS} events -> {} sink bytes",
        expected.len()
    );

    // Incarnation 1: run halfway, CHECKPOINT PIPELINE to disk, keep
    // going a little (uncommitted staging), then die.
    let recovered = dir.join("recovered.csv");
    let mut s1 = session();
    let mut victim = s1
        .execute_script(&script(&recovered))
        .expect("script runs")
        .into_pipeline()
        .expect("one pipeline");
    while victim.events_in() < EVENTS / 2 {
        victim.step().expect("step");
    }
    s1.adopt_pipeline(victim).expect("adopt");
    let result = s1
        .execute(&format!("CHECKPOINT PIPELINE out TO '{}'", store.display()))
        .expect("checkpoint persists");
    let StatementResult::Checkpointed { epoch, .. } = result else {
        panic!("expected Checkpointed");
    };
    let mut victim = s1.take_pipeline("out").expect("still adopted");
    while victim.events_in() < 2 * EVENTS / 3 {
        victim.step().expect("step");
    }
    println!(
        "killing the pipeline: checkpoint epoch {epoch} durable at {} events, \
         died at {} events (the overhang is uncommitted sink staging)",
        EVENTS / 2,
        victim.events_in()
    );
    drop(victim);
    drop(s1); // the whole "process" is gone

    // Incarnation 2: a fresh session. The same script re-assembles the
    // topology; RESTORE rewinds pipeline *and* sink file to the durable
    // epoch; run completes the stream.
    let mut s2 = session();
    let outcome = s2
        .execute_script(&format!(
            "{} RESTORE PIPELINE out FROM '{}';",
            script(&recovered),
            store.display()
        ))
        .expect("restore script runs");
    let Some(StatementResult::Restored { epoch, .. }) = outcome.results.last() else {
        panic!("expected Restored last");
    };
    println!(
        "fresh session restored epoch {epoch} from {}",
        store.display()
    );
    let mut restored = outcome.into_pipeline().expect("one pipeline");
    restored.run().expect("restored pipeline runs");

    let actual = std::fs::read(&recovered).expect("recovered output");
    assert_eq!(
        actual, expected,
        "kill+restore must be byte-identical to the uninterrupted run"
    );
    println!(
        "recovered sink file is byte-identical to the uninterrupted run \
         ({} bytes)",
        actual.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
