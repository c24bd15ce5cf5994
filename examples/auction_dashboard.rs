//! Auction dashboard: NEXMark Query 7 with periodic materialization.
//!
//! A human-facing dashboard doesn't need every intermediate update — the
//! paper's `EMIT STREAM AFTER DELAY` (Extension 6) coalesces the "torrent
//! of updates" into one refresh per window per interval. This example runs
//! one SQL script per EMIT clause over the `nexmark` connector, which
//! asserts its own watermarks, and compares the update volume of
//! continuous vs. delayed emission.
//!
//! Run with: `cargo run --example auction_dashboard`

use std::sync::{Arc, Mutex};

use onesql::connect::session;
use onesql_nexmark::queries;
use onesql_types::Result;

const EVENTS: u64 = 20_000;

/// Run Q7 under `emit` into a changelog sink: the changelog rows it
/// wrote, and its last five rendered lines.
fn run(emit: &str) -> Result<(u64, Vec<String>)> {
    let mut session = session();
    let script = format!(
        "CREATE SOURCE nex WITH (connector = 'nexmark', seed = 7, events = {EVENTS});
         CREATE SINK board WITH (connector = 'changelog');
         INSERT INTO board {} {emit};",
        queries::Q7
    );
    let mut pipeline = session.execute_script(&script)?.into_pipeline()?;
    let rendered = session
        .take_handle::<Arc<Mutex<String>>>("board")
        .expect("changelog sink exports its buffer");
    let metrics = pipeline.run()?;
    let text = rendered.lock().unwrap();
    let mut preview: Vec<String> = text.lines().rev().take(5).map(String::from).collect();
    preview.reverse();
    Ok((metrics.events_out, preview))
}

fn main() -> Result<()> {
    println!(
        "== Query 7 over {EVENTS} NEXMark events: highest bid per 10-minute window ==\n{}\n",
        queries::Q7
    );

    let (continuous, preview) = run("EMIT STREAM")?;
    println!("continuous emission: {continuous} changelog rows; last updates:");
    for line in preview {
        println!("  {line}");
    }

    for delay_s in [10i64, 60] {
        let (delayed, _) = run(&format!(
            "EMIT STREAM AFTER DELAY INTERVAL '{delay_s}' SECONDS"
        ))?;
        println!(
            "\nEMIT AFTER DELAY {delay_s}s: {delayed} changelog rows \
             ({:.1}x fewer updates)",
            continuous as f64 / delayed.max(1) as f64
        );
    }

    // The dashboard's "final answers only" mode.
    let (finals, preview) = run("EMIT STREAM AFTER WATERMARK")?;
    println!("\nEMIT AFTER WATERMARK: {finals} rows (one per window and tied bid); winners:");
    for line in preview {
        println!("  {line}");
    }
    Ok(())
}
