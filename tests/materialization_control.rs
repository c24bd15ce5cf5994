//! Materialization-control semantics beyond the paper's listings:
//! Extension 7 (combined delay + watermark, the early/on-time/late
//! pattern), table-mode periodic delay, and interactions with lateness.
//! Each query runs as a script over a replayed schedule.

use onesql_core::connect::replay::Replay;
use onesql_core::{HistoryTap, SqlPipeline, StreamBuilder};
use onesql_types::{row, DataType, Duration, Ts};

fn bids() -> Replay {
    let bid = StreamBuilder::new()
        .event_time_column("bidtime")
        .column("price", DataType::Int)
        .column("item", DataType::String);
    Replay::new([("Bid", bid.build())])
}

const WINDOWED_SUM: &str = "SELECT wend, SUM(price) FROM Tumble(data => TABLE(Bid), \
     timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) GROUP BY wend";

/// `(undo, ptime, sum)` of every row the sink heard.
fn sums(tap: &HistoryTap) -> Vec<(bool, Ts, i64)> {
    tap.rows()
        .iter()
        .map(|r| (r.undo, r.ptime, r.row.value(1).unwrap().as_int().unwrap()))
        .collect()
}

/// `replay` under `sql`, with `lateness` allowed.
fn run_late(replay: &Replay, sql: &str, lateness: Duration) -> (SqlPipeline, HistoryTap) {
    let (mut session, tap) = replay.session().unwrap();
    let engine = session.engine_mut();
    *engine = std::mem::take(engine).with_allowed_lateness(lateness);
    let script = format!("INSERT INTO out {sql};");
    let mut pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    pipeline.run().unwrap();
    (pipeline, tap)
}

/// Extension 7: `EMIT STREAM AFTER DELAY d AND AFTER WATERMARK` produces
/// periodic early results and an on-time result at the watermark.
#[test]
fn combined_delay_and_watermark_is_early_on_time() {
    let mut replay = bids();
    // Three bids for window [8:00, 8:10) at ptime 8:01, 8:03, 8:08. The
    // delay timer armed at 8:01 fires at 8:06 (early partial: sum 3); the
    // watermark closes the window at 8:12 (on-time flush: 3 -> 7).
    replay
        .insert(Ts::hm(8, 1), "Bid", row!(Ts::hm(8, 1), 1i64, "a"))
        .insert(Ts::hm(8, 3), "Bid", row!(Ts::hm(8, 3), 2i64, "b"))
        .insert(Ts::hm(8, 8), "Bid", row!(Ts::hm(8, 8), 4i64, "c"))
        .watermark(Ts::hm(8, 12), Ts::hm(8, 10));
    let sql =
        format!("{WINDOWED_SUM} EMIT STREAM AFTER DELAY INTERVAL '5' MINUTES AND AFTER WATERMARK");
    let (_, tap) = replay.run(&sql).unwrap();
    assert_eq!(
        sums(&tap),
        vec![
            // Early firing at 8:06 with the partial sum of the first two.
            (false, Ts::hm(8, 6), 3),
            // On-time firing at the watermark: replace 3 with the final 7.
            (true, Ts::hm(8, 12), 3),
            (false, Ts::hm(8, 12), 7),
        ]
    );
}

/// With allowed lateness, a late row triggers a *late* periodic firing
/// after the on-time one — the full early/on-time/late pattern of [6].
#[test]
fn late_firings_after_watermark_with_lateness() {
    let mut replay = bids();
    // On-time: watermark passes the window before the delay fires. A late
    // but allowed row arrives at 8:15; its delayed firing is 8:20.
    replay
        .insert(Ts::hm(8, 1), "Bid", row!(Ts::hm(8, 1), 1i64, "a"))
        .watermark(Ts::hm(8, 2), Ts::hm(8, 10))
        .insert(Ts::hm(8, 15), "Bid", row!(Ts::hm(8, 5), 9i64, "late"))
        .advance(Ts::hm(8, 21));
    let sql =
        format!("{WINDOWED_SUM} EMIT STREAM AFTER DELAY INTERVAL '5' MINUTES AND AFTER WATERMARK");
    let (_, tap) = run_late(&replay, &sql, Duration::from_minutes(30));
    assert_eq!(
        sums(&tap),
        vec![
            (false, Ts::hm(8, 2), 1), // on-time
            (true, Ts::hm(8, 20), 1), // late refinement, 5 min after change
            (false, Ts::hm(8, 20), 10),
        ]
    );
}

/// `EMIT AFTER DELAY` without STREAM: the *table* refreshes periodically.
#[test]
fn table_mode_periodic_delay() {
    let mut replay = bids();
    replay
        .insert(Ts::hm(8, 1), "Bid", row!(Ts::hm(8, 1), 1i64, "a"))
        .insert(Ts::hm(8, 2), "Bid", row!(Ts::hm(8, 2), 2i64, "b"))
        .advance(Ts::hm(8, 7));
    let sql = format!("{WINDOWED_SUM} EMIT AFTER DELAY INTERVAL '5' MINUTES");
    let (pipeline, _) = replay.run(&sql).unwrap();
    // Before the delay deadline the table view is still empty.
    assert!(pipeline.table_at(Ts::hm(8, 5)).unwrap().is_empty());
    // After it, the coalesced state appears in one step.
    assert_eq!(
        pipeline.table_at(Ts::hm(8, 6)).unwrap(),
        vec![row!(Ts::hm(8, 10), 3i64)]
    );
}

/// A cancelled aggregate (insert + retract within the delay) materializes
/// nothing at all.
#[test]
fn cancelled_updates_never_materialize() {
    let mut replay = bids();
    replay
        .insert(Ts::hm(8, 1), "Bid", row!(Ts::hm(8, 1), 1i64, "a"))
        .retract(Ts::hm(8, 2), "Bid", row!(Ts::hm(8, 1), 1i64, "a"))
        .advance(Ts::hm(9, 0));
    let sql = "SELECT bidtime, price FROM Bid EMIT STREAM AFTER DELAY INTERVAL '5' MINUTES";
    let (_, tap) = replay.run(sql).unwrap();
    assert!(tap.rows().is_empty());
}

/// Watermark gating composes with DISTINCT and HAVING above the aggregate.
#[test]
fn gate_composes_with_having() {
    let mut replay = bids();
    replay
        .insert(Ts::hm(8, 1), "Bid", row!(Ts::hm(8, 1), 1i64, "a"))
        .insert(Ts::hm(8, 2), "Bid", row!(Ts::hm(8, 2), 2i64, "b"))
        .insert(Ts::hm(8, 11), "Bid", row!(Ts::hm(8, 11), 3i64, "c"))
        .advance(Ts::hm(9, 0));
    let sql = "SELECT wend, COUNT(*) AS n FROM Tumble(data => TABLE(Bid), \
               timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
               GROUP BY wend HAVING COUNT(*) >= 2 EMIT AFTER WATERMARK";
    // Only the first window reaches two bids.
    let (pipeline, _) = replay.run(sql).unwrap();
    assert_eq!(pipeline.table().unwrap(), vec![row!(Ts::hm(8, 10), 2i64)]);
}
