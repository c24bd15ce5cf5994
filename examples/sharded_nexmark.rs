//! The sharded pipeline runtime, end to end: a 4-partition NEXMark source
//! feeding 4 hash-sharded query workers — then a simulated crash halfway
//! through, and an exactly-once resume from the `PipelineCheckpoint`.
//!
//! Run with: `cargo run --example sharded_nexmark`

use std::sync::{Arc, Mutex};

use onesql::connect::{register_nexmark_streams, PartitionedNexmarkSource};
use onesql::core::StreamRow;
use onesql::{DriverConfig, Engine, PipelineDriver, Sink};

const EVENTS: u64 = 20_000;
const PARTITIONS: usize = 4;
const WORKERS: usize = 4;

const SQL: &str = "SELECT wend, auction, COUNT(*), SUM(price), MAX(price) \
     FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime), \
     dur => INTERVAL '1' MINUTE) GROUP BY wend, auction EMIT AFTER WATERMARK";

struct CollectingSink(Arc<Mutex<Vec<StreamRow>>>);

impl Sink for CollectingSink {
    fn name(&self) -> &str {
        "collect"
    }
    fn write(&mut self, rows: &[StreamRow]) -> onesql_types::Result<()> {
        self.0.lock().unwrap().extend_from_slice(rows);
        Ok(())
    }
}

fn pipeline() -> (Arc<Mutex<Vec<StreamRow>>>, PipelineDriver) {
    let mut engine = Engine::new();
    register_nexmark_streams(&mut engine);
    let rows = Arc::new(Mutex::new(Vec::new()));
    let config = DriverConfig {
        workers: WORKERS,
        ..DriverConfig::default()
    };
    let mut driver = PipelineDriver::new(&engine, SQL, config).expect("pipeline plans");
    driver
        .attach_partitioned_source(Box::new(PartitionedNexmarkSource::seeded(
            42, EVENTS, PARTITIONS,
        )))
        .expect("streams registered");
    driver
        .attach_sink(Box::new(CollectingSink(rows.clone())))
        .unwrap();
    (rows, driver)
}

fn main() {
    // Reference: the uninterrupted run.
    let (reference_rows, mut reference) = pipeline();
    reference.run().expect("pipeline runs");
    let reference_out = reference_rows.lock().unwrap().clone();
    println!(
        "uninterrupted: {EVENTS} events through {WORKERS} workers -> {} output rows",
        reference_out.len()
    );

    // Take two: kill the pipeline halfway.
    let (rows, mut victim) = pipeline();
    while !victim.is_finished() && victim.events_in() < EVENTS / 2 {
        victim.step().expect("step");
    }
    let checkpoint = victim.checkpoint().expect("checkpoint");
    let consumed: u64 = checkpoint.offsets.iter().flatten().sum();
    let mut observed = rows.lock().unwrap().clone();
    println!(
        "crash after {consumed} events (offsets per partition: {:?}), \
         {} rows already at the sink",
        checkpoint.offsets[0],
        observed.len()
    );
    drop(victim); // worker threads reaped, all live state gone

    // Take three: fresh driver, fresh (replayable) sources, restore, run.
    let (resumed_rows, mut resumed) = pipeline();
    resumed.restore(&checkpoint).expect("restore");
    resumed.run().expect("resumed run");
    observed.extend(resumed_rows.lock().unwrap().iter().cloned());

    assert_eq!(
        observed, reference_out,
        "resumed changelog must be identical to the uninterrupted run"
    );
    println!(
        "resumed:       {} more rows -> {} total, byte-identical to the \
         uninterrupted changelog (exactly-once)",
        observed.len() - rows.lock().unwrap().len(),
        observed.len()
    );

    let metrics = resumed.metrics().clone();
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
