//! The sharded pipeline runtime, end to end: a 4-partition NEXMark source
//! feeding 4 hash-sharded query workers — then a simulated crash halfway
//! through, and an exactly-once resume from the `PipelineCheckpoint`.
//!
//! Run with: `cargo run --example sharded_nexmark`

use onesql::connect::default_registry;
use onesql::{HistoryTap, Session, SqlPipeline};

const EVENTS: u64 = 20_000;
const PARTITIONS: usize = 4;
const WORKERS: usize = 4;

const SQL: &str = "SELECT wend, auction, COUNT(*), SUM(price), MAX(price) \
     FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime), \
     dur => INTERVAL '1' MINUTE) GROUP BY wend, auction EMIT AFTER WATERMARK";

/// The pipeline, assembled by one script, and a tap recording what its
/// sink heard.
fn pipeline() -> (HistoryTap, SqlPipeline) {
    let tap = HistoryTap::new();
    let mut registry = default_registry();
    registry.register_sink("tap", tap.clone());
    let script = format!(
        "SET workers = {WORKERS};
         CREATE PARTITIONED SOURCE nex
           WITH (connector = 'nexmark', seed = 42, events = {EVENTS}, partitions = {PARTITIONS});
         CREATE SINK out WITH (connector = 'tap');
         INSERT INTO out {SQL};"
    );
    let pipeline = Session::new(registry)
        .execute_script(&script)
        .expect("pipeline plans")
        .into_pipeline()
        .expect("one INSERT, one pipeline");
    (tap, pipeline)
}

fn main() {
    // Reference: the uninterrupted run.
    let (reference_rows, mut reference) = pipeline();
    reference.run().expect("pipeline runs");
    let reference_out = reference_rows.rows();
    println!(
        "uninterrupted: {EVENTS} events through {WORKERS} workers -> {} output rows",
        reference_out.len()
    );

    // Take two: kill the pipeline halfway.
    let (rows, mut victim) = pipeline();
    while victim.events_in() < EVENTS / 2 {
        victim.step().expect("step");
    }
    let checkpoint = victim.driver_mut().checkpoint().expect("checkpoint");
    let consumed: u64 = checkpoint.offsets.iter().flatten().sum();
    let mut observed = rows.rows();
    println!(
        "crash after {consumed} events (offsets per partition: {:?}), \
         {} rows already at the sink",
        checkpoint.offsets[0],
        observed.len()
    );
    drop(victim); // worker threads reaped, all live state gone

    // Take three: fresh driver, fresh (replayable) sources, restore, run.
    let (resumed_rows, mut resumed) = pipeline();
    resumed.driver_mut().restore(&checkpoint).expect("restore");
    resumed.run().expect("resumed run");
    observed.extend(resumed_rows.rows());

    assert_eq!(
        observed, reference_out,
        "resumed changelog must be identical to the uninterrupted run"
    );
    println!(
        "resumed:       {} more rows -> {} total, byte-identical to the \
         uninterrupted changelog (exactly-once)",
        observed.len() - rows.rows().len(),
        observed.len()
    );

    let metrics = resumed.metrics();
    println!();
    println!("resumed pipeline metrics:");
    println!("  events in:      {}", metrics.events_in);
    println!("  events out:     {}", metrics.events_out);
    println!("  watermarks in:  {}", metrics.watermarks_in);
    println!("  rounds:         {}", metrics.rounds);
    for s in &metrics.sources {
        println!(
            "  source {:<22} {:>6} events, finished={}",
            s.name, s.events, s.finished
        );
    }
    println!(
        "  output watermark: {} (final: {})",
        metrics.output_watermark,
        metrics.output_watermark.is_final()
    );
}
