//! End-to-end session windows through SQL (the paper's §8 extension:
//! "transitive closure sessions (periods of contiguous activity)"), each
//! query run as a script over a replayed schedule.

use onesql_core::connect::replay::Replay;
use onesql_core::StreamBuilder;
use onesql_types::{row, DataType, Ts};

fn click() -> StreamBuilder {
    StreamBuilder::new()
        .column("user_id", DataType::Int)
        .column("page", DataType::String)
        .event_time_column("ts")
}

fn clicks() -> Replay {
    Replay::new([("Click", click().build())])
}

const SESSION_SQL: &str = "\
SELECT user_id, wstart, wend, COUNT(*) AS clicks
FROM Session(data => TABLE(Click), timecol => DESCRIPTOR(ts),
             gap => INTERVAL '5' MINUTE)
GROUP BY user_id, wstart, wend";

#[test]
fn contiguous_activity_forms_one_session() {
    let mut replay = clicks();
    // User 7 clicks at 8:00, 8:03, 8:06 (each within 5m of the last), then
    // again at 8:30.
    for (i, m) in [0i64, 3, 6, 30].iter().enumerate() {
        let ptime = Ts::hm(8, 40 + i as i64);
        replay.insert(ptime, "Click", row!(7i64, "home", Ts::hm(8, *m)));
    }
    replay.advance(Ts::hm(9, 0));
    let (pipeline, _) = replay.run(SESSION_SQL).unwrap();
    assert_eq!(
        pipeline.table().unwrap(),
        vec![
            // Session 1: [8:00, 8:06 + 5m) with 3 clicks.
            row!(7i64, Ts::hm(8, 0), Ts::hm(8, 11), 3i64),
            // Session 2: the lone 8:30 click.
            row!(7i64, Ts::hm(8, 30), Ts::hm(8, 35), 1i64),
        ]
    );
}

#[test]
fn sessions_are_per_user() {
    let mut replay = clicks();
    replay
        .insert(Ts(1), "Click", row!(1i64, "a", Ts::hm(8, 0)))
        .insert(Ts(2), "Click", row!(2i64, "a", Ts::hm(8, 2)))
        .advance(Ts(10));
    let rows = replay.run(SESSION_SQL).unwrap().0.table().unwrap();
    assert_eq!(rows.len(), 2, "different users never merge: {rows:?}");
}

#[test]
fn out_of_order_bridging_event_merges_sessions() {
    let mut replay = clicks();
    // Two distant bursts arrive first, the bridging click arrives late.
    replay
        .insert(Ts(1), "Click", row!(1i64, "a", Ts::hm(8, 0)))
        .insert(Ts(2), "Click", row!(1i64, "b", Ts::hm(8, 8)))
        .insert(Ts(3), "Click", row!(1i64, "c", Ts::hm(8, 4)))
        .advance(Ts(10));
    let (pipeline, _) = replay.run(SESSION_SQL).unwrap();
    assert_eq!(pipeline.table_at(Ts(2)).unwrap().len(), 2);
    assert_eq!(
        pipeline.table().unwrap(),
        vec![row!(1i64, Ts::hm(8, 0), Ts::hm(8, 13), 3i64)]
    );
}

#[test]
fn emit_after_watermark_finalizes_sessions() {
    let mut replay = clicks();
    // Watermark past session end (8:08): the merged session materializes
    // once, final, at the watermark's arrival; nothing before it.
    replay
        .insert(Ts(1), "Click", row!(1i64, "a", Ts::hm(8, 0)))
        .insert(Ts(2), "Click", row!(1i64, "b", Ts::hm(8, 3)))
        .watermark(Ts(3), Ts::hm(8, 9));
    let sql = format!("{SESSION_SQL} EMIT STREAM AFTER WATERMARK");
    let rows = replay.run(&sql).unwrap().1.rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].row, row!(1i64, Ts::hm(8, 0), Ts::hm(8, 8), 2i64));
    assert_eq!(rows[0].ptime, Ts(3), "gated until final");
    assert!(!rows[0].undo);
}

#[test]
fn session_aggregates_sum_and_max() {
    let purchase = StreamBuilder::new()
        .column("user_id", DataType::Int)
        .column("amount", DataType::Int)
        .event_time_column("ts");
    let mut replay = Replay::new([("Purchase", purchase.build())]);
    replay
        .insert(Ts(1), "Purchase", row!(1i64, 30i64, Ts::hm(9, 0)))
        .insert(Ts(2), "Purchase", row!(1i64, 50i64, Ts::hm(9, 5)))
        .insert(Ts(3), "Purchase", row!(1i64, 20i64, Ts::hm(9, 9)))
        .advance(Ts(10));
    let sql = "SELECT user_id, wstart, wend, SUM(amount), MAX(amount)
               FROM Session(data => TABLE(Purchase), timecol => DESCRIPTOR(ts),
                            gap => INTERVAL '10' MINUTE)
               GROUP BY user_id, wstart, wend";
    assert_eq!(
        replay.run(sql).unwrap().0.table().unwrap(),
        vec![row!(1i64, Ts::hm(9, 0), Ts::hm(9, 19), 100i64, 50i64)]
    );
}

#[test]
fn session_without_window_keys_is_rejected() {
    let err = clicks()
        .run(
            "SELECT user_id, COUNT(*) FROM Session(data => TABLE(Click), \
             timecol => DESCRIPTOR(ts), gap => INTERVAL '5' MINUTE) GROUP BY user_id",
        )
        .unwrap_err();
    assert!(err.to_string().contains("wstart"), "{err}");
}
