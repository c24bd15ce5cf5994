//! Fault tolerance: checkpoint/restore across the whole pipeline.
//!
//! Appendix B.2.1: "Flink periodically writes a consistent checkpoint of
//! the application state... For recovery, the application is restarted and
//! all operators are initialized with the state of the last completed
//! checkpoint." These tests kill a run mid-stream, restore it into a fresh
//! instance, and require the recovered run to be indistinguishable from an
//! uninterrupted one.

use onesql_checker::paper::{self, assert_listing};
use onesql_core::connect::replay::Replay;
use onesql_core::{HistoryTap, PipelineCheckpoint, SqlPipeline, StreamBuilder};
use onesql_nexmark::paper::{paper_timeline, PAPER_Q7_SQL};
use onesql_state::Codec;
use onesql_types::{row, DataType, Ts};

fn bids() -> Replay {
    let bid = StreamBuilder::new()
        .event_time_column("bidtime")
        .column("price", DataType::Int)
        .column("item", DataType::String);
    Replay::new([("Bid", bid.build())])
}

/// `sql` over `replay`, assembled and not yet stepped.
fn pipeline(replay: &Replay, sql: &str) -> (SqlPipeline, HistoryTap) {
    let (mut session, tap) = replay.session().unwrap();
    let script = format!("INSERT INTO out {sql};");
    let pipeline = session
        .execute_script(&script)
        .unwrap()
        .into_pipeline()
        .unwrap();
    (pipeline, tap)
}

/// Step `pipeline` through its first `rounds` rounds, then checkpoint it.
fn checkpoint_after(pipeline: &mut SqlPipeline, rounds: usize) -> PipelineCheckpoint {
    for _ in 0..rounds {
        pipeline.step().unwrap();
    }
    pipeline.driver_mut().checkpoint().unwrap()
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
    let mut replay = bids();
    replay
        .insert(Ts::hm(8, 1), "Bid", row!(Ts::hm(8, 1), 1i64, "A"))
        .watermark(Ts::hm(8, 20), Ts::hm(8, 15))
        .insert(Ts::hm(8, 21), "Bid", row!(Ts::hm(8, 2), 1i64, "late"))
        .insert(Ts::hm(8, 22), "Bid", row!(Ts::hm(8, 16), 1i64, "ok"));
    let cp = checkpoint_after(&mut pipeline(&replay, sql).0, 2);

    let (mut restored, sink) = pipeline(&replay, sql);
    restored.driver_mut().restore(&cp).unwrap();
    restored.run().unwrap();
    // The late event for the closed [8:00, 8:10) window was dropped; the
    // fresh one for an open window was processed.
    assert_eq!(restored.table().unwrap(), vec![row!(Ts::hm(8, 20), 1i64)]);
    assert_eq!(sink.rows().len(), 1, "{:?}", sink.rows());
}

#[test]
fn restore_rejects_mismatched_plan() {
    let replay = paper::replay(&paper_timeline());
    let (mut distinct, _) = pipeline(&replay, "SELECT DISTINCT price FROM Bid");
    let cp = checkpoint_after(&mut distinct, 3);
    let sql = "SELECT price, COUNT(*) FROM Bid GROUP BY price";
    let (mut other, _) = pipeline(&replay, sql);
    // Different operator count/shape: must error, not corrupt.
    assert!(other.driver_mut().restore(&cp).is_err());
}

#[test]
fn checkpoint_is_deterministic() {
    let replay = paper::replay(&paper_timeline());
    let make = || checkpoint_after(&mut pipeline(&replay, PAPER_Q7_SQL).0, 5).to_bytes();
    assert_eq!(make(), make());
}
