//! End-to-end SQL battery: every language feature exercised through the
//! full parse → bind → optimize → execute pipeline on small streams, each
//! query run as a script over a replayed schedule.

use onesql_core::connect::replay::Replay;
use onesql_core::{Engine, Session, SqlPipeline, StreamBuilder};
use onesql_types::{row, DataType, Duration, Row, Ts, Value};

fn bid() -> StreamBuilder {
    StreamBuilder::new()
        .event_time_column("bidtime")
        .column("price", DataType::Int)
        .column("item", DataType::String)
}

fn auction() -> StreamBuilder {
    StreamBuilder::new()
        .column("id", DataType::Int)
        .column("seller", DataType::String)
        .event_time_column("opened")
}

fn category(engine: &mut Engine) {
    engine
        .register_table(
            "Category",
            StreamBuilder::new()
                .column("id", DataType::Int)
                .column("name", DataType::String),
            vec![row!(1i64, "art"), row!(2i64, "cars"), row!(3i64, "books")],
        )
        .unwrap();
}

fn replay() -> Replay {
    Replay::new([("Bid", bid().build()), ("Auction", auction().build())])
}

/// A session over `replay` with the `Category` table loaded.
fn session(replay: &Replay) -> Session {
    let (mut session, _) = replay.session().unwrap();
    category(session.engine_mut());
    session
}

/// Run `sql` over `replay` in `session` to completion.
fn run_in(mut session: Session, sql: &str) -> SqlPipeline {
    let script = format!("INSERT INTO out {sql};");
    let mut pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    pipeline.run().unwrap();
    pipeline
}

fn run(replay: &Replay, sql: &str) -> SqlPipeline {
    run_in(session(replay), sql)
}

/// Five bids: A..E at minutes 1..5 with prices 2,4,4,1,5.
fn bids() -> Replay {
    let mut replay = replay();
    let bids = [
        (1i64, 2i64, "A"),
        (2, 4, "B"),
        (3, 4, "C"),
        (4, 1, "D"),
        (5, 5, "E"),
    ];
    for (m, price, item) in bids {
        replay.insert(Ts::hm(8, m), "Bid", row!(Ts::hm(8, m), price, item));
    }
    replay
}

fn run_bids(sql: &str) -> Vec<Row> {
    let mut replay = bids();
    replay.advance(Ts::hm(9, 0));
    run(&replay, sql).table().unwrap()
}

#[test]
fn projection_arithmetic_aliases() {
    let rows = run_bids("SELECT item, price * 10 + 1 AS scaled FROM Bid WHERE price >= 4");
    assert_eq!(
        rows,
        vec![row!("B", 41i64), row!("C", 41i64), row!("E", 51i64)]
    );
}

#[test]
fn distinct_eliminates_duplicates() {
    let rows = run_bids("SELECT DISTINCT price FROM Bid WHERE price = 4");
    assert_eq!(rows, vec![row!(4i64)]);
}

#[test]
fn global_aggregates() {
    let rows = run_bids("SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(price) FROM Bid");
    assert_eq!(rows, vec![row!(5i64, 16i64, 1i64, 5i64, 3.2f64)]);
}

#[test]
fn global_aggregate_over_empty_stream_is_one_row() {
    let mut replay = replay();
    replay.advance(Ts::hm(9, 0));
    let pipeline = run(&replay, "SELECT COUNT(*), MAX(price) FROM Bid");
    assert_eq!(
        pipeline.table().unwrap(),
        vec![Row::new(vec![Value::Int(0), Value::Null])]
    );
}

#[test]
fn group_by_with_having() {
    let rows = run_bids("SELECT price, COUNT(*) AS n FROM Bid GROUP BY price HAVING COUNT(*) > 1");
    assert_eq!(rows, vec![row!(4i64, 2i64)]);
}

#[test]
fn count_distinct() {
    let rows = run_bids("SELECT COUNT(DISTINCT price) FROM Bid");
    assert_eq!(rows, vec![row!(4i64)]);
}

#[test]
fn case_and_cast() {
    let rows = run_bids(
        "SELECT item, CASE WHEN price >= 4 THEN 'high' ELSE 'low' END AS tier,
                CAST(price AS DOUBLE) AS fprice
         FROM Bid WHERE item IN ('A', 'E')",
    );
    assert_eq!(
        rows,
        vec![row!("A", "low", 2.0f64), row!("E", "high", 5.0f64)]
    );
}

#[test]
fn between_like_is_null() {
    let rows = run_bids(
        "SELECT item FROM Bid WHERE price BETWEEN 2 AND 4 AND item LIKE '_' AND item IS NOT NULL",
    );
    assert_eq!(rows, vec![row!("A"), row!("B"), row!("C")]);
}

#[test]
fn scalar_functions() {
    let rows = run_bids(
        "SELECT UPPER(item), ABS(price - 10), COALESCE(NULL, item) FROM Bid WHERE item = 'A'",
    );
    assert_eq!(rows, vec![row!("A", 8i64, "A")]);
}

#[test]
fn union_all_keeps_duplicates() {
    let rows = run_bids(
        "SELECT price FROM Bid WHERE item = 'B' UNION ALL SELECT price FROM Bid WHERE price = 4",
    );
    assert_eq!(rows.len(), 3);
}

#[test]
fn scalar_subquery_in_where() {
    let rows = run_bids("SELECT item, price FROM Bid WHERE price = (SELECT MAX(price) FROM Bid)");
    assert_eq!(rows, vec![row!("E", 5i64)]);
}

#[test]
fn stream_to_table_join() {
    let pipeline = run(
        &bids(),
        "SELECT B.item, C.name FROM Bid B JOIN Category C ON B.price = C.id \
         ORDER BY item",
    );
    // price 2 -> cars, price 1 -> art; 4 and 5 have no category.
    assert_eq!(
        pipeline.table().unwrap(),
        vec![row!("A", "cars"), row!("D", "art")]
    );
}

#[test]
fn left_join_null_extends() {
    let sql = "SELECT B.item, C.name FROM Bid B LEFT JOIN Category C ON B.price = C.id";
    let rows = run(&bids(), sql).table().unwrap();
    assert_eq!(rows.len(), 5);
    assert!(rows.contains(&Row::new(vec![Value::str("E"), Value::Null])));
    assert!(rows.contains(&row!("A", "cars")));
}

#[test]
fn stream_stream_join() {
    let mut replay = replay();
    // Auction arrives *after* the matching bid: the join must remember.
    // Retraction of the bid then removes the join result.
    replay
        .insert(Ts::hm(8, 1), "Bid", row!(Ts::hm(8, 1), 7i64, "X"))
        .insert(Ts::hm(8, 2), "Auction", row!(7i64, "alice", Ts::hm(8, 2)))
        .retract(Ts::hm(8, 3), "Bid", row!(Ts::hm(8, 1), 7i64, "X"));
    let sql = "SELECT B.item, A.seller FROM Bid B JOIN Auction A ON B.price = A.id";
    let pipeline = run(&replay, sql);
    assert!(pipeline.table_at(Ts::hm(8, 1)).unwrap().is_empty());
    assert_eq!(
        pipeline.table_at(Ts::hm(8, 2)).unwrap(),
        vec![row!("X", "alice")]
    );
    assert!(pipeline.table().unwrap().is_empty());
}

#[test]
fn retractions_update_aggregates() {
    let mut replay = replay();
    replay
        .insert(Ts(1), "Bid", row!(Ts(1), 10i64, "A"))
        .insert(Ts(2), "Bid", row!(Ts(2), 5i64, "A"))
        .retract(Ts(3), "Bid", row!(Ts(1), 10i64, "A"))
        .retract(Ts(4), "Bid", row!(Ts(2), 5i64, "A"));
    let pipeline = run(
        &replay,
        "SELECT item, SUM(price) AS total FROM Bid GROUP BY item",
    );
    assert_eq!(pipeline.table_at(Ts(2)).unwrap(), vec![row!("A", 15i64)]);
    assert_eq!(pipeline.table_at(Ts(3)).unwrap(), vec![row!("A", 5i64)]);
    let table = pipeline.table().unwrap();
    assert!(table.is_empty(), "group vanishes at zero rows");
}

/// `MAX` over a source that can retract keeps every value: retracting
/// the maximum falls back to the next one.
#[test]
fn retracting_the_max_falls_back_to_the_next_value() {
    let pipeline = run(&max_schedule(), MAX_BY_ITEM);
    assert_eq!(pipeline.table_at(Ts(2)).unwrap(), vec![row!("A", 10i64)]);
    assert_eq!(pipeline.table().unwrap(), vec![row!("A", 5i64)]);
}

/// A source that declares it only inserts, yet emits a retraction: the
/// plan gave `MAX` one value, so the retraction fails the pipeline with
/// an error naming the aggregate, and no wrong `MAX` reaches the sink.
#[test]
fn a_retraction_from_a_source_declared_insert_only_is_refused() {
    use onesql_core::connect::registry::{
        ConnectorRegistry, Exports, OptionBag, SourceConnector, SourceSpec,
    };
    use onesql_core::connect::PartitionedSource;
    use onesql_core::HistoryTap;
    use onesql_types::{Result, SchemaRef};

    struct InsertOnly(Replay);
    impl SourceConnector for InsertOnly {
        fn declare(
            &self,
            spec: &SourceSpec,
            options: &mut OptionBag,
        ) -> Result<Vec<(String, SchemaRef)>> {
            self.0.declare(spec, options)
        }
        fn build(
            &self,
            spec: &SourceSpec,
            options: &mut OptionBag,
            exports: &mut Exports,
        ) -> Result<Box<dyn PartitionedSource>> {
            self.0.build(spec, options, exports)
        }
        fn retracts(&self, _: &SourceSpec) -> bool {
            false
        }
    }

    let tap = HistoryTap::new();
    let mut registry = ConnectorRegistry::new();
    registry.register_source("insert_only", InsertOnly(max_schedule()));
    registry.register_sink("history", tap.clone());
    let mut session = Session::new(registry);
    let script = format!(
        "CREATE SOURCE feed WITH (connector = 'insert_only');
         CREATE SINK out WITH (connector = 'history');
         INSERT INTO out {MAX_BY_ITEM};"
    );
    let mut pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    let err = pipeline.run().unwrap_err().to_string();
    assert!(
        err.contains("a retraction reached MAX(x), which keeps one value"),
        "{err}"
    );
    for heard in tap.rows() {
        assert!(heard.row.value(1).unwrap() != &Value::Int(5), "{heard:?}");
    }
}

const MAX_BY_ITEM: &str = "SELECT item, MAX(price) FROM Bid GROUP BY item";

/// Bids of 10 and 5 on one item, then the 10 retracted.
fn max_schedule() -> Replay {
    let mut replay = replay();
    replay
        .insert(Ts(1), "Bid", row!(Ts(1), 10i64, "A"))
        .insert(Ts(2), "Bid", row!(Ts(2), 5i64, "A"))
        .retract(Ts(3), "Bid", row!(Ts(1), 10i64, "A"));
    replay
}

#[test]
fn hop_windows_count_overlaps() {
    let rows = run_bids(
        "SELECT wend, COUNT(*) FROM Hop(data => TABLE(Bid), \
         timecol => DESCRIPTOR(bidtime), dur => INTERVAL '4' MINUTES, \
         hopsize => INTERVAL '2' MINUTES) GROUP BY wend",
    );
    // Bids at 8:01..8:05. Window ends every 2 min covering 4 min:
    // wend 8:02 covers (7:58,8:02): bid 8:01 -> 1
    // wend 8:04 covers [8:00,8:04): bids 1,2,3 -> 3
    // wend 8:06: bids 2,3,4,5 -> 4; wend 8:08: bids 4,5 -> 2.
    assert_eq!(
        rows,
        vec![
            row!(Ts::hm(8, 2), 1i64),
            row!(Ts::hm(8, 4), 3i64),
            row!(Ts::hm(8, 6), 4i64),
            row!(Ts::hm(8, 8), 2i64),
        ]
    );
}

#[test]
fn order_by_limit() {
    let rows = run_bids("SELECT item, price FROM Bid ORDER BY price DESC, item LIMIT 3");
    assert_eq!(
        rows,
        vec![row!("E", 5i64), row!("B", 4i64), row!("C", 4i64)]
    );
}

const WINDOW_COUNT: &str = "SELECT wend, COUNT(*) FROM Tumble(data => TABLE(Bid), \
     timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) GROUP BY wend";

/// A bid, a watermark past its window, then a bid for the same window.
fn straggler() -> Replay {
    let mut replay = replay();
    replay
        .insert(Ts::hm(8, 1), "Bid", row!(Ts::hm(8, 1), 1i64, "A"))
        .watermark(Ts::hm(8, 20), Ts::hm(8, 15))
        .insert(Ts::hm(8, 21), "Bid", row!(Ts::hm(8, 2), 1i64, "late"));
    replay
}

#[test]
fn late_data_dropped_from_closed_windows() {
    // The second bid's window [8:00, 8:10) is closed: dropped
    // (Extension 2).
    let pipeline = run(&straggler(), WINDOW_COUNT);
    assert_eq!(pipeline.table().unwrap(), vec![row!(Ts::hm(8, 10), 1i64)]);
}

#[test]
fn allowed_lateness_admits_stragglers() {
    let replay = straggler();
    let mut session = session(&replay);
    let engine = session.engine_mut();
    *engine = std::mem::take(engine).with_allowed_lateness(Duration::from_minutes(10));
    // Within the 10-minute lateness: still counted.
    let pipeline = run_in(session, WINDOW_COUNT);
    assert_eq!(pipeline.table().unwrap(), vec![row!(Ts::hm(8, 10), 2i64)]);
}

#[test]
fn errors_are_informative() {
    let mut session = session(&replay());
    let mut err = |sql: &str| {
        let script = format!("INSERT INTO out {sql};");
        session.execute_script(&script).unwrap_err().to_string()
    };
    let e = err("SELECT nope FROM Bid");
    assert!(e.contains("nope"), "{e}");
    let e = err("SELECT * FROM Missing");
    assert!(e.contains("Missing"), "{e}");
    let e = err("SELECT item FROM Bid GROUP BY price");
    assert!(e.contains("GROUP BY"), "{e}");
    let e = err("SELECT price + item FROM Bid");
    assert!(e.to_lowercase().contains("type"), "{e}");
}

#[test]
fn explain_shows_streaming_decisions() {
    let session = session(&replay());
    let e = session.engine();
    let plan = e
        .explain(
            "SELECT wend, MAX(price) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) GROUP BY wend",
        )
        .unwrap();
    assert!(plan.contains("mode=windowed"), "{plan}");
    let plan = e
        .explain("SELECT item, COUNT(*) FROM Bid GROUP BY item")
        .unwrap();
    assert!(plan.contains("mode=retraction"), "{plan}");
}

#[test]
fn changelog_is_consistent_with_table_at_every_instant() {
    let mut pipeline = run(&bids(), "SELECT price, COUNT(*) FROM Bid GROUP BY price");
    let log = pipeline.driver_mut().changelog().clone();
    for m in 0..10 {
        let at = Ts::hm(8, m);
        assert_eq!(
            log.snapshot_at(at).to_rows(),
            pipeline.table_at(at).unwrap()
        );
    }
}
