//! Temporal tables: `AS OF SYSTEM TIME` and point-in-time enrichment.
//!
//! §6.1 of the paper points to temporal tables as SQL machinery that
//! already embodies the time-varying relation, and §8 motivates correlated
//! temporal joins with currency conversion: "enriching an order with the
//! currency exchange rate at the time when the order was placed".
//!
//! This example maintains a versioned exchange-rate table, queries
//! historical snapshots with bare `SELECT ... AS OF SYSTEM TIME`
//! statements, and performs the §8 order-enrichment lookup through the
//! temporal-table API.
//!
//! Run with: `cargo run --example temporal_rates`

use onesql_connect::{session, StatementResult};
use onesql_types::{format_table, row, Ts};

fn main() {
    // The rate table: EUR and GBP rates changing over the morning.
    let mut session = session();
    session
        .execute("CREATE TEMPORAL TABLE Rates (currency STRING, rate INT) WITH (key = 'currency')")
        .unwrap();
    let rates = session.engine_mut().temporal_table_mut("Rates").unwrap();
    rates.insert(Ts::hm(9, 0), row!("EUR", 109i64)).unwrap();
    rates.insert(Ts::hm(9, 0), row!("GBP", 127i64)).unwrap();
    rates.insert(Ts::hm(10, 30), row!("EUR", 114i64)).unwrap();
    rates.insert(Ts::hm(11, 15), row!("GBP", 125i64)).unwrap();

    // 1. Historical snapshots via AS OF SYSTEM TIME.
    for at in ["9:30", "10:45", "12:00"] {
        let sql = format!(
            "SELECT currency, rate FROM Rates AS OF SYSTEM TIME TIMESTAMP '{at}' \
             ORDER BY currency"
        );
        let StatementResult::Rows(rows) = session.execute(&sql).unwrap() else {
            unreachable!("a bare SELECT returns its rows")
        };
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|row| row.values().iter().map(ToString::to_string).collect())
            .collect();
        println!("== Rates AS OF {at} ==");
        print!("{}", format_table(&["currency", "rate"], &cells));
        println!();
    }

    // 2. The §8 use case: enrich each order with the rate at order time.
    let orders = [
        // (order id, currency, amount in cents, placed at)
        (1i64, "EUR", 2_000i64, Ts::hm(9, 45)),
        (2, "EUR", 5_000, Ts::hm(10, 45)),
        (3, "GBP", 1_000, Ts::hm(11, 0)),
        (4, "GBP", 1_000, Ts::hm(11, 30)),
    ];
    println!("== Orders enriched with the rate at placement time ==");
    // Re-borrow the live temporal table for correlated lookups.
    let rates = session.engine_mut().temporal_table_mut("Rates").unwrap();
    for (id, currency, amount, placed) in orders {
        let rate_row = rates
            .lookup_as_of(&row!(currency), placed)
            .unwrap()
            .expect("rate exists");
        let rate = rate_row.value(1).unwrap().as_int().unwrap();
        println!(
            "  order {id}: {amount} cents {currency} @ {placed} -> {} cents USD (rate {rate})",
            amount * rate / 100,
        );
    }

    // 3. The table's own changelog is a TVR: show its history.
    println!("\n== Rate table changelog (system-time history) ==");
    let history = session
        .engine_mut()
        .temporal_table_mut("Rates")
        .unwrap()
        .history()
        .clone();
    for entry in history.entries() {
        println!(
            "  {}  {}  {}",
            entry.ptime,
            if entry.change.diff > 0 {
                "INSERT"
            } else {
                "DELETE"
            },
            entry.change.row
        );
    }
}
