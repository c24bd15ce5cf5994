//! Quickstart: one SQL script over a stream, three materializations.
//!
//! Replays the paper's §4 bid timeline through a windowed aggregation and
//! shows the same query rendered three ways: as an instantaneously updated
//! table, as a changelog stream (what the sink hears), and gated on
//! completeness (`EMIT AFTER WATERMARK`). Every run is the script
//! `INSERT INTO out <query>` over a `replay` source.
//!
//! Run with: `cargo run --example quickstart`

use onesql_core::connect::replay::Replay;
use onesql_core::Session;
use onesql_nexmark::paper::{paper_bid_schema, paper_timeline, PaperEvent};
use onesql_types::{format_table, Row, Ts};

/// Print `rows` under `sql`'s column names, in the paper's listing style.
fn print_table(session: &Session, sql: &str, rows: &[Row]) {
    let schema = session.engine().plan(sql).unwrap().schema();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| row.values().iter().map(ToString::to_string).collect())
        .collect();
    print!("{}", format_table(&schema.names(), &cells));
}

fn main() {
    let mut bids = Replay::new([("Bid", paper_bid_schema())]);
    for event in paper_timeline() {
        match event {
            PaperEvent::Insert { ptime, row } => bids.insert(ptime, "Bid", row),
            PaperEvent::Watermark { ptime, wm } => bids.watermark(ptime, wm),
        };
    }
    let sql = "SELECT MAX(wstart), wend, SUM(price) AS total
               FROM Tumble(data => TABLE(Bid),
                           timecol => DESCRIPTOR(bidtime),
                           dur => INTERVAL '10' MINUTE)
               GROUP BY wend";
    let (session, _) = bids.session().unwrap();
    println!("== Plan ==\n{}", session.engine().explain(sql).unwrap());

    // 1. Table view: the relation as of 8:13 (partial) and 8:21 (full).
    let (pipeline, sink) = bids.run(sql).unwrap();
    println!("== Table view at 8:13 (partial sums) ==");
    print_table(&session, sql, &pipeline.table_at(Ts::hm(8, 13)).unwrap());
    println!("\n== Table view at 8:21 ==");
    print_table(&session, sql, &pipeline.table_at(Ts::hm(8, 21)).unwrap());

    // 2. Stream view: the changelog with undo/ptime/ver metadata.
    println!("\n== The sink's changelog (undo/ptime/ver) ==");
    for row in sink.rows() {
        println!(
            "  {}  ver {}  {}{}",
            row.ptime,
            row.ver,
            if row.undo { "undo " } else { "     " },
            row.row
        );
    }

    // 3. Completeness-gated view: only watermark-final rows.
    let gated_sql = format!("{sql} EMIT AFTER WATERMARK");
    let (mut gated, _) = bids.run(&gated_sql).unwrap();
    println!("\n== EMIT AFTER WATERMARK at 8:21 (only final windows) ==");
    print_table(&session, sql, &gated.table_at(Ts::hm(8, 21)).unwrap());

    let metrics = gated.metrics();
    println!(
        "\noutput watermark: {}, events in: {}, rows out: {}",
        metrics.output_watermark.ts(),
        metrics.events_in,
        metrics.events_out
    );
}
