//! End-to-end connector pipeline: the NEXMark bid stream flows through the
//! paper's Query 7 (highest bid per ten-minute window) into a changelog
//! sink — external data in, external results out, no bespoke glue.
//!
//! Run with: `cargo run --example connect_nexmark`

use std::sync::{Arc, Mutex};

use onesql::connect::session;
use onesql_nexmark::queries;

fn main() {
    // An end-to-end job is one script: source, sink, SQL.
    let mut session = session();
    let script = format!(
        "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 42, events = 5000);
         CREATE SINK out WITH (connector = 'changelog', watermarks = TRUE);
         INSERT INTO out {};",
        queries::Q7
    );
    let mut pipeline = session
        .execute_script(&script)
        .expect("Q7 plans")
        .into_pipeline()
        .expect("one INSERT, one pipeline");
    let rendered = session
        .take_handle::<Arc<Mutex<String>>>("out")
        .expect("the in-memory changelog sink exports its buffer");

    let metrics = pipeline.run().expect("pipeline runs");

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
