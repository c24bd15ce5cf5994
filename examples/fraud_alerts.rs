//! Fraud alerts: the notification use case for watermark-gated emission.
//!
//! "The most common example of delayed stream materialization is
//! notification use cases, where polling the contents of an eventually
//! consistent relation is infeasible" (§6.5.2). An alert must fire exactly
//! once, and only when its verdict is final — a bidder flagged on partial
//! data would be a false positive if more bids arrive.
//!
//! This example flags bidders who place more than 3 bids inside a 1-minute
//! window. With plain emission the alert row flickers in and out as counts
//! cross the threshold; with `EMIT STREAM AFTER WATERMARK` exactly one
//! final alert per (bidder, window) is delivered. Each query runs as the
//! script `INSERT INTO out <query>` over a `replay` source.
//!
//! Run with: `cargo run --example fraud_alerts`

use onesql_core::connect::replay::Replay;
use onesql_core::StreamBuilder;
use onesql_types::{format_table, row, DataType, Ts};

const ALERT_SQL: &str = "\
SELECT bidder, wend, COUNT(*) AS bids
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '1' MINUTE)
GROUP BY bidder, wend
HAVING COUNT(*) > 3";

fn main() {
    let bid = StreamBuilder::new()
        .column("auction", DataType::Int)
        .column("bidder", DataType::Int)
        .column("price", DataType::Int)
        .event_time_column("dateTime");
    let mut bids = Replay::new([("Bid", bid.build())]);
    // Bidder 1 sniping auction 10 with a burst of 5 bids in one minute;
    // bidder 2 behaving normally.
    let schedule: Vec<(i64, i64, i64)> = vec![
        // (second, bidder, price)
        (1, 1, 100),
        (5, 2, 110),
        (10, 1, 120),
        (20, 1, 130),
        (30, 1, 140),
        (40, 1, 150),
        (70, 2, 160),
    ];
    for (sec, bidder, price) in schedule {
        let t = Ts(Ts::hm(9, 0).millis() + sec * 1000);
        bids.insert(t, "Bid", row!(10i64, bidder, price, t));
    }
    // Source watermark: everything up to 9:02 has arrived.
    bids.watermark(Ts::hm(9, 3), Ts::hm(9, 2));

    for (label, sql) in [
        ("eventually consistent (flickers)", ALERT_SQL.to_string()),
        (
            "EMIT STREAM AFTER WATERMARK (fires once, final)",
            format!("{ALERT_SQL} EMIT STREAM AFTER WATERMARK"),
        ),
    ] {
        let (_, sink) = bids.run(&sql).unwrap();
        println!("== {label} ==");
        let rows = sink.rows();
        for r in &rows {
            println!(
                "  {}  {}{}",
                r.ptime,
                if r.undo { "RETRACT " } else { "ALERT   " },
                r.row
            );
        }
        println!("  -> {} notification messages\n", rows.len());
    }

    // The per-bidder minute counts, for reference.
    let (counts, _) = bids
        .run(
            "SELECT bidder, wend, COUNT(*) AS bids
             FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
                         dur => INTERVAL '1' MINUTE)
             GROUP BY bidder, wend ORDER BY bidder",
        )
        .unwrap();
    let cells: Vec<Vec<String>> = counts
        .table()
        .unwrap()
        .iter()
        .map(|row| row.values().iter().map(ToString::to_string).collect())
        .collect();
    println!("== Bid counts per bidder per minute ==");
    print!("{}", format_table(&["bidder", "wend", "bids"], &cells));
}
