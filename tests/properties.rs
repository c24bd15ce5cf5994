//! Property-based tests of the paper's core invariants.

use proptest::prelude::*;

use onesql_core::connect::replay::Replay;
use onesql_core::StreamBuilder;
use onesql_tvr::{Bag, Change, Changelog};
use onesql_types::{row, DataType, Duration, Row, Ts};

// ---------------------------------------------------------------------------
// Stream/table duality (§3.1): the two encodings are interconvertible.
// ---------------------------------------------------------------------------

/// Random sequence of small row changes.
fn arb_changes() -> impl Strategy<Value = Vec<(i64, i64)>> {
    // (key in 0..5, diff in {-1, +1}) pairs.
    prop::collection::vec((0i64..5, prop::bool::ANY), 0..60).prop_map(|v| {
        v.into_iter()
            .map(|(k, b)| (k, if b { 1 } else { -1 }))
            .collect()
    })
}

proptest! {
    /// Applying the changelog derived from a snapshot sequence reproduces
    /// every snapshot: tables ⇒ streams ⇒ tables is the identity.
    #[test]
    fn duality_snapshots_round_trip(changes in arb_changes()) {
        // Build a snapshot sequence by applying the changes cumulatively.
        let mut bag = Bag::new();
        let mut snapshots = Vec::new();
        for (i, (key, diff)) in changes.iter().enumerate() {
            bag.update(Change::with_diff(row!(*key), *diff));
            snapshots.push((Ts(i as i64), bag.clone()));
        }
        // Tables -> stream -> tables.
        let log = Changelog::from_snapshots(snapshots.clone()).unwrap();
        for (t, snap) in &snapshots {
            prop_assert_eq!(&log.snapshot_at(*t), snap);
        }
    }

    /// Consolidation is a canonical form: applying a change list and its
    /// consolidation yields the same relation.
    #[test]
    fn consolidation_preserves_semantics(changes in arb_changes()) {
        let list: Vec<Change> = changes
            .iter()
            .map(|(k, d)| Change::with_diff(row!(*k), *d))
            .collect();
        let mut direct = Bag::new();
        direct.apply(list.clone());
        let mut via = Bag::new();
        via.apply(onesql_tvr::change::consolidate(list));
        prop_assert_eq!(direct, via);
    }
}

// ---------------------------------------------------------------------------
// Window assignment invariants (Extension 3).
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn tumble_windows_partition_time(
        ts in -1_000_000i64..1_000_000,
        dur in 1i64..10_000,
        offset in -5_000i64..5_000,
    ) {
        let (ws, we) = onesql_exec::window::tumble_window(
            Ts(ts),
            Duration(dur),
            Duration(offset),
        );
        prop_assert!(ws <= Ts(ts) && Ts(ts) < we, "ts must fall in its window");
        prop_assert_eq!(we - ws, Duration(dur));
        // Adjacent instants on either side of a boundary get adjacent windows.
        let (ws2, _) = onesql_exec::window::tumble_window(
            Ts(we.millis()),
            Duration(dur),
            Duration(offset),
        );
        prop_assert_eq!(ws2, we);
    }

    #[test]
    fn hop_windows_cover_and_contain(
        ts in -1_000_000i64..1_000_000,
        dur in 1i64..5_000,
        hop in 1i64..5_000,
    ) {
        let windows = onesql_exec::window::hop_windows(
            Ts(ts),
            Duration(dur),
            Duration(hop),
            Duration::ZERO,
        );
        // Every returned window contains ts; all widths equal dur.
        for (ws, we) in &windows {
            prop_assert!(*ws <= Ts(ts) && Ts(ts) < *we);
            prop_assert_eq!(*we - *ws, Duration(dur));
        }
        // The number of aligned starts in the half-open interval
        // (ts - dur, ts] is floor(dur/hop) or floor(dur/hop) + 1 depending
        // on phase; when hop divides dur it is exactly dur/hop (the paper's
        // dur=10m hop=5m example always yields 2).
        let floor = dur / hop;
        if dur % hop == 0 {
            prop_assert_eq!(windows.len() as i64, floor);
        } else {
            prop_assert!(
                windows.len() as i64 == floor || windows.len() as i64 == floor + 1,
                "got {} windows for dur={dur} hop={hop}",
                windows.len()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Arrival-order invariance (§3.2): the *final* result of a query over a
// recorded stream does not depend on arrival order, because event time is
// data.
// ---------------------------------------------------------------------------

fn windowed_sum(bids: &[(i64, i64)], order: &[usize]) -> Vec<Row> {
    let bid = StreamBuilder::new()
        .event_time_column("bidtime")
        .column("price", DataType::Int);
    let mut replay = Replay::new([("Bid", bid.build())]);
    for (i, &idx) in order.iter().enumerate() {
        let (minute, price) = bids[idx];
        replay.insert(Ts(i as i64), "Bid", row!(Ts::from_minutes(minute), price));
    }
    replay.advance(Ts(order.len() as i64));
    let sql = "SELECT wend, SUM(price), COUNT(*) FROM Tumble(data => TABLE(Bid), \
               timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) GROUP BY wend";
    replay.run(sql).unwrap().0.table().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn final_results_independent_of_arrival_order(
        bids in prop::collection::vec((0i64..60, 1i64..100), 1..25),
        seed in 0u64..1000,
    ) {
        let in_order: Vec<usize> = (0..bids.len()).collect();
        // A deterministic shuffle from the seed.
        let mut shuffled = in_order.clone();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        prop_assert_eq!(
            windowed_sum(&bids, &in_order),
            windowed_sum(&bids, &shuffled)
        );
    }

    /// The streaming windowed aggregate agrees with a batch computation.
    #[test]
    fn streaming_agrees_with_batch(
        bids in prop::collection::vec((0i64..60, 1i64..100), 0..25),
    ) {
        let order: Vec<usize> = (0..bids.len()).collect();
        let streaming = windowed_sum(&bids, &order);

        // Batch: group by window end in plain Rust.
        let mut expected: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for &(minute, price) in &bids {
            let wend = (minute / 10) * 10 + 10;
            let e = expected.entry(wend).or_insert((0, 0));
            e.0 += price;
            e.1 += 1;
        }
        let expected_rows: Vec<Row> = expected
            .into_iter()
            .map(|(wend, (sum, count))| row!(Ts::from_minutes(wend), sum, count))
            .collect();
        prop_assert_eq!(streaming, expected_rows);
    }
}
