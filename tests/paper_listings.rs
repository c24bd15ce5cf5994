//! The paper's listings (§4 and §6.5) over its Bid timeline, each run
//! through the production path by the checker's paper scenario: a SQL
//! script through `Session::execute_script`, the driver, the stream
//! renderer and a kill and restore at every event boundary, on one worker
//! and on two (the plan routes each window to one worker, or runs the
//! listing on one). The expected rows, `undo` / `ptime` / `ver`
//! included, live once, in `onesql_checker::paper`.

use onesql_checker::paper::{self, assert_listing, check_listing, listing, PaperScenario};
use onesql_checker::{check, Nemesis, NemesisPlan, RunKind, Scenario};
use onesql_nexmark::paper::{paper_timeline, PaperEvent, PAPER_Q7_SQL};
use onesql_types::{format_table, Ts};

/// Listing 3: the full table view of Query 7 at 8:21.
#[test]
fn listing_03_q7_full_dataset() {
    assert_listing("Listing 3", 0);
}

/// Listing 4: the same query observed at 8:13 shows partial results.
#[test]
fn listing_04_q7_partial_dataset() {
    assert_listing("Listing 4", 0);
}

/// Listing 5: the raw Tumble TVF output at 8:21.
#[test]
fn listing_05_tumble_tvf() {
    assert_listing("Listing 5", 0);
}

/// Listing 6: Tumble + GROUP BY wend with MAX(wstart) and SUM(price).
#[test]
fn listing_06_tumble_group_by() {
    assert_listing("Listing 6", 0);
}

/// Listing 7: the Hop TVF doubles each row across overlapping windows.
#[test]
fn listing_07_hop_tvf() {
    assert_listing("Listing 7", 0);
}

/// Listing 8: Hop + GROUP BY wend.
#[test]
fn listing_08_hop_group_by() {
    assert_listing("Listing 8", 0);
    // No key keeps a Hop window's rows together: two workers asked, one
    // runs.
    let mut scenario = PaperScenario::new(&listing("Listing 8"), &paper_timeline(), 2);
    scenario.begin_run(RunKind::Reference).unwrap();
    assert_eq!(scenario.build(0).unwrap().1.workers(), 1);
}

/// Listing 9: `EMIT STREAM` renders the changelog with undo/ptime/ver.
#[test]
fn listing_09_emit_stream() {
    assert_listing("Listing 9", 0);
}

/// Listings 10–12: `EMIT AFTER WATERMARK` table views at 8:13, 8:16, 8:21.
#[test]
fn listing_10_11_12_emit_after_watermark() {
    assert_listing("Listings 10-12", 0);
}

/// Listing 13: `EMIT STREAM AFTER WATERMARK` — exactly one final row per
/// window, stamped with the watermark's arrival time.
#[test]
fn listing_13_emit_stream_after_watermark() {
    assert_listing("Listing 13", 0);
}

/// Listing 14: `EMIT STREAM AFTER DELAY '6' MINUTES` coalesces updates.
#[test]
fn listing_14_emit_stream_after_delay() {
    assert_listing("Listing 14", 0);
}

/// The two scripts the paper prints no table for, at their final tables.
#[test]
fn tumble_aggregate_and_distinct_scripts() {
    assert_listing("Tumble SUM/COUNT", 0);
    assert_listing("DISTINCT price", 0);
}

/// The stream/table duality on the paper's data: an `AS OF` probe after
/// every event equals the fold of the changelog the sink heard up to it.
#[test]
fn stream_table_duality_on_paper_data() {
    let timeline = paper_timeline();
    let mut scenario = PaperScenario::new(&listing("Listing 9"), &timeline, 1);
    let no_kill = NemesisPlan { cycles: Vec::new() };
    let report = check(&mut scenario, Nemesis::seeded(0), &no_kill).unwrap();
    report.assert_ok();
    assert_eq!(report.reference.probes.len(), timeline.len() - 1);
}

/// Watermarks are irrelevant to the *final* plain-query answer: the same
/// query over the bids alone (no watermarks at all) gives Listing 3.
#[test]
fn same_result_without_watermarks() {
    let mut bids = paper_timeline();
    bids.retain(|event| matches!(event, PaperEvent::Insert { .. }));
    let violations = check_listing(&listing("Listing 3"), &bids, 1, 0).unwrap();
    assert!(violations.is_empty(), "{violations:?}");
}

/// The formatted output of Listing 3, rendered in the paper's style with
/// `$`-prefixed prices.
#[test]
fn listing_03_formatted_table() {
    let replay = paper::replay(&paper_timeline());
    let (pipeline, _) = replay.run(PAPER_Q7_SQL).unwrap();
    let rows = pipeline.table_at(Ts::hm(8, 21)).unwrap();
    let (session, _) = replay.session().unwrap();
    let schema = session.engine().plan(PAPER_Q7_SQL).unwrap().schema();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let cells = row.values().iter().enumerate();
            cells
                .map(|(i, v)| {
                    if i == 3 {
                        format!("${v}")
                    } else {
                        v.to_string()
                    }
                })
                .collect()
        })
        .collect();
    let s = format_table(&schema.names(), &cells);
    assert!(
        s.contains("| wstart | wend | bidtime | price | item |"),
        "{s}"
    );
    assert!(
        s.contains("| 8:00   | 8:10 | 8:09    | $5    | D    |"),
        "{s}"
    );
    assert!(
        s.contains("| 8:10   | 8:20 | 8:17    | $6    | F    |"),
        "{s}"
    );
}
