//! The stream/table duality as user-visible behavior (§3.1 and §3.3.1):
//! "streams and tables are two representations for one semantic object."

use onesql_core::connect::replay::Replay;
use onesql_core::StreamBuilder;
use onesql_tvr::{Bag, Changelog};
use onesql_types::{row, DataType, Ts};

fn bids() -> Replay {
    let bid = StreamBuilder::new()
        .event_time_column("bidtime")
        .column("price", DataType::Int)
        .column("item", DataType::String);
    Replay::new([("Bid", bid.build())])
}

/// The changelog (stream view) and the snapshots (table views) of one query
/// are interconvertible in both directions, at every instant.
#[test]
fn one_semantic_object_two_encodings() {
    let mut replay = bids();
    for (i, (price, item)) in [(2i64, "A"), (5, "A"), (3, "B"), (1, "A")]
        .iter()
        .enumerate()
    {
        let ptime = Ts(i as i64 + 1);
        replay.insert(ptime, "Bid", row!(ptime, *price, *item));
    }
    let (mut q, _) = replay
        .run("SELECT item, MAX(price) FROM Bid GROUP BY item")
        .unwrap();

    // Direction 1: stream -> table. Replaying the changelog gives the table
    // at every instant.
    let stream_encoding = q.driver_mut().changelog().clone();
    for t in 0..6 {
        assert_eq!(
            stream_encoding.snapshot_at(Ts(t)).to_rows(),
            q.table_at(Ts(t)).unwrap(),
        );
    }

    // Direction 2: table -> stream. Differencing the table views
    // reconstructs a changelog with the same snapshots (consolidated form).
    let snapshots: Vec<(Ts, Bag)> = (0..6)
        .map(|t| (Ts(t), stream_encoding.snapshot_at(Ts(t))))
        .collect();
    let reconstructed = Changelog::from_snapshots(snapshots).unwrap();
    for t in 0..6 {
        assert_eq!(
            reconstructed.snapshot_at(Ts(t)),
            stream_encoding.snapshot_at(Ts(t)),
            "reconstructed changelog diverges at t={t}"
        );
    }
}

/// "It remains possible to declaratively convert the changelog stream view
/// back into the original TVR using standard SQL" (§3.3.1): feed the
/// changelog of query A into a second query as a stream of changes and
/// recover A's table.
#[test]
fn changelog_replay_through_a_second_query() {
    let mut replay = bids();
    for (i, item) in ["A", "B", "A", "A"].iter().enumerate() {
        replay.insert(Ts(i as i64), "Bid", row!(Ts(i as i64), 1i64, *item));
    }
    let (mut q, _) = replay
        .run("SELECT item, COUNT(*) FROM Bid GROUP BY item")
        .unwrap();

    // Second query: the changelog rows (item, count) are a stream of
    // inserts/retracts; SELECT * over them, applied as changes, rebuilds
    // the relation.
    let count_log = StreamBuilder::new()
        .column("item", DataType::String)
        .column("n", DataType::Int);
    let mut changes = Replay::new([("CountLog", count_log.build())]);
    for entry in q.driver_mut().changelog().entries() {
        let (ptime, row) = (entry.ptime, entry.change.row.clone());
        for _ in 0..entry.change.diff.abs() {
            if entry.change.diff > 0 {
                changes.insert(ptime, "CountLog", row.clone());
            } else {
                changes.retract(ptime, "CountLog", row.clone());
            }
        }
    }
    let (q2, _) = changes.run("SELECT item, n FROM CountLog").unwrap();
    assert_eq!(q2.table().unwrap(), q.table().unwrap());
}
