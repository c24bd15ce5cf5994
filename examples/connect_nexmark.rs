//! End-to-end connector pipeline: the NEXMark bid stream flows through the
//! paper's Query 7 (highest bid per ten-minute window) into a changelog
//! sink — external data in, external results out, no bespoke glue.
//!
//! Run with: `cargo run --example connect_nexmark`

use onesql::connect::{ChangelogSink, DriverConfig, NexmarkSource, PipelineDriver};
use onesql::core::Engine;
use onesql_nexmark::queries;

fn main() {
    let mut engine = Engine::new();
    onesql::connect::register_nexmark_streams(&mut engine);

    // An end-to-end job is three lines: source, sink, SQL.
    let (rendered, sink) = ChangelogSink::in_memory();
    let mut pipeline =
        PipelineDriver::new(&engine, queries::Q7, DriverConfig::default()).expect("Q7 plans");
    pipeline
        .attach_source(Box::new(NexmarkSource::seeded(42, 5_000)))
        .expect("streams registered");
    pipeline
        .attach_sink(Box::new(sink.with_watermarks()))
        .unwrap();

    let metrics = pipeline.run().expect("pipeline runs").clone();

    let text = rendered.lock().unwrap();
    println!("{}", text.lines().take(30).collect::<Vec<_>>().join("\n"));
    let total = text.lines().count();
    if total > 30 {
        println!("... ({} more lines)", total - 30);
    }

    println!();
    println!("pipeline metrics:");
    println!("  events in:      {}", metrics.events_in);
    println!("  events out:     {}", metrics.events_out);
    println!("  watermarks in:  {}", metrics.watermarks_in);
    println!("  rounds:         {}", metrics.rounds);
    for s in &metrics.sources {
        println!(
            "  source {:<20} {:>6} events, finished={}",
            s.name, s.events, s.finished
        );
    }
    println!(
        "  output watermark: {} (final: {})",
        metrics.output_watermark,
        metrics.output_watermark.is_final()
    );
}
