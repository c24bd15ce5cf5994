//! Fault tolerance: checkpoint/restore across the whole pipeline.
//!
//! Appendix B.2.1: "Flink periodically writes a consistent checkpoint of
//! the application state... For recovery, the application is restarted and
//! all operators are initialized with the state of the last completed
//! checkpoint." These tests kill a run mid-stream, restore it into a fresh
//! instance, and require the recovered run to be indistinguishable from an
//! uninterrupted one.

use onesql_checker::paper::assert_listing;
use onesql_core::{Engine, StreamBuilder};
use onesql_nexmark::paper::{paper_timeline, PaperEvent, PAPER_Q7_SQL};
use onesql_types::{row, DataType, Ts};

fn engine() -> Engine {
    let mut e = Engine::new();
    e.register_stream(
        "Bid",
        StreamBuilder::new()
            .event_time_column("bidtime")
            .column("price", DataType::Int)
            .column("item", DataType::String),
    );
    e
}

// The paper timeline killed after every event, through the pipeline:
// each script runs under the checker's paper scenario, which checkpoints,
// kills and restores at every event boundary (once with nothing staged,
// once with one event staged past the checkpoint) and requires the
// paper's rows and the uninterrupted run's history after every restore.
// Chunk seed 1 shuffles the scheduling the listing tests run under.

#[test]
fn q7_recovers_at_every_split_point() {
    assert_listing("Listing 9", 1);
}

#[test]
fn windowed_aggregate_recovers_mid_window() {
    assert_listing("Tumble SUM/COUNT", 1);
}

#[test]
fn emit_after_watermark_gate_state_survives() {
    assert_listing("Listings 10-12", 1);
}

#[test]
fn distinct_state_survives() {
    assert_listing("DISTINCT price", 1);
}

#[test]
fn watermark_position_survives_restore() {
    // After restore, late data must still be dropped: the watermark is part
    // of the checkpoint.
    let sql = "SELECT wend, COUNT(*) FROM Tumble(data => TABLE(Bid), \
               timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) GROUP BY wend";
    let e = engine();
    let mut q = e.execute(sql).unwrap();
    q.insert("Bid", Ts::hm(8, 1), row!(Ts::hm(8, 1), 1i64, "A"))
        .unwrap();
    q.watermark("Bid", Ts::hm(8, 20), Ts::hm(8, 15)).unwrap();
    let cp = q.checkpoint().unwrap();

    let mut restored = e.execute(sql).unwrap();
    restored.restore(&cp).unwrap();
    // Late event for the closed [8:00, 8:10) window: dropped.
    restored
        .insert("Bid", Ts::hm(8, 21), row!(Ts::hm(8, 2), 1i64, "late"))
        .unwrap();
    assert!(restored.changelog().is_empty());
    // Fresh event for an open window: processed.
    restored
        .insert("Bid", Ts::hm(8, 22), row!(Ts::hm(8, 16), 1i64, "ok"))
        .unwrap();
    assert_eq!(
        restored.changelog().snapshot().to_rows(),
        vec![row!(Ts::hm(8, 20), 1i64)]
    );
}

#[test]
fn restore_rejects_mismatched_plan() {
    let e = engine();
    let q = e.execute("SELECT DISTINCT price FROM Bid").unwrap();
    let cp = q.checkpoint().unwrap();
    let mut other = e
        .execute("SELECT price, COUNT(*) FROM Bid GROUP BY price")
        .unwrap();
    // Different operator count/shape: must error, not corrupt.
    assert!(other.restore(&cp).is_err());
}

#[test]
fn checkpoint_is_deterministic() {
    let e = engine();
    let make = || {
        let mut q = e.execute(PAPER_Q7_SQL).unwrap();
        for event in paper_timeline().into_iter().take(5) {
            match event {
                PaperEvent::Insert { ptime, row } => q.insert("Bid", ptime, row).unwrap(),
                PaperEvent::Watermark { ptime, wm } => q.watermark("Bid", ptime, wm).unwrap(),
            }
        }
        q.checkpoint().unwrap()
    };
    assert_eq!(make(), make());
}
