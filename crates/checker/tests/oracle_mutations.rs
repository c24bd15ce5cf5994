//! Negative tests: intentionally corrupt a *real* recorded history and
//! verify the oracle that owns that failure mode catches it.
//!
//! The histories are recorded from genuine full-stack NEXMark runs, so
//! these tests double as proof the oracles bite on production-shaped
//! data — not just on hand-built toy sequences.

use onesql_checker::harness::{RunKind, Scenario};
use onesql_checker::{
    config_transparent, emit_gated, emitted, fold_table, replay_identical, retraction_balanced,
    retraction_balanced_against, watermark_monotone, NexmarkScenario,
};
use onesql_core::{HistoryEvent, HistoryTap, StreamRow};
use onesql_types::{Row, Value};

/// One uninterrupted full-stack run of a suite query; returns its raw
/// history and final operator table.
fn record(name: &str, gated: bool, events: u64) -> (Vec<HistoryEvent>, Vec<Row>) {
    let mut scenario = NexmarkScenario::by_name(name, events);
    if gated {
        scenario = scenario.gated();
    }
    scenario.begin_run(RunKind::Reference).unwrap();
    let (_session, mut pipeline) = scenario.build(0).unwrap();
    let tap = HistoryTap::new();
    let sink = Box::new(tap.clone());
    pipeline.driver_mut().attach_sink(sink).unwrap();
    pipeline.run().unwrap();
    let table = pipeline.table().unwrap();
    (tap.events(), table)
}

fn position_of_first_undo(history: &[HistoryEvent]) -> usize {
    history
        .iter()
        .position(|e| matches!(e, HistoryEvent::Emitted(sr) if sr.undo))
        .expect("a streaming MAX query should retract superseded rows")
}

#[test]
fn a_dropped_retraction_is_caught_by_retraction_balanced() {
    let (history, table) = record("q7", false, 800);
    assert!(retraction_balanced_against(&history, &table).is_empty());

    // The bug: a retraction vanishes from the changelog. The running
    // multiset never dips negative, but the fold keeps a row the
    // operators already replaced — the table form of the oracle sees it.
    let mut mutated = history.clone();
    mutated.remove(position_of_first_undo(&history));
    let violations = retraction_balanced_against(&mutated, &table);
    assert!(
        violations.iter().any(|v| v.oracle == "retraction-balanced"),
        "dropped retraction went unnoticed: {violations:?}"
    );
    // And against the intact reference, replay-identical flags it too.
    assert!(!replay_identical(&history, &mutated).is_empty());
}

#[test]
fn a_duplicated_retraction_is_caught_by_retraction_balanced() {
    let (history, _) = record("q7", false, 800);
    let pos = position_of_first_undo(&history);
    let mut mutated = history.clone();
    let dup = mutated[pos].clone();
    mutated.insert(pos, dup);
    let violations = retraction_balanced(&mutated);
    assert!(
        violations.iter().any(|v| v.oracle == "retraction-balanced"),
        "double retraction went unnoticed: {violations:?}"
    );
}

#[test]
fn a_flipped_diff_is_caught_by_retraction_balanced() {
    let (history, _) = record("q7", false, 800);
    // The bug: an insert rendered with the undo bit set.
    let mut mutated = history.clone();
    for event in &mut mutated {
        if let HistoryEvent::Emitted(sr) = event {
            if !sr.undo {
                sr.undo = true;
                break;
            }
        }
    }
    assert!(!retraction_balanced(&mutated).is_empty());
}

#[test]
fn a_regressed_watermark_is_caught_by_watermark_monotone() {
    // Gated runs deliver several watermarks (streaming runs typically
    // hear only the final one: rows hold the pending merge buffers open).
    let (history, _) = record("q7", true, 800);
    let wm_positions: Vec<usize> = history
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, HistoryEvent::Watermark(_)))
        .map(|(i, _)| i)
        .collect();
    assert!(
        wm_positions.len() >= 2,
        "need two watermark deliveries to regress one"
    );
    assert!(watermark_monotone(&history).is_empty());

    // The bug: a later watermark delivery replays an earlier value.
    let mut mutated = history.clone();
    let early = mutated[wm_positions[0]].clone();
    mutated[*wm_positions.last().unwrap()] = early;
    assert!(!watermark_monotone(&mutated).is_empty());
}

#[test]
fn an_early_emission_is_caught_by_emit_gated() {
    let (history, _) = record("q7", true, 800);
    assert!(emit_gated(&history, 1).is_empty());

    // The bug: a gated row escapes before the watermark that releases
    // it — model it by hoisting the last emitted row to the very front.
    let pos = history
        .iter()
        .rposition(|e| matches!(e, HistoryEvent::Emitted(_)))
        .expect("gated q7 emits rows");
    let mut mutated = history.clone();
    let row = mutated.remove(pos);
    mutated.insert(0, row);
    let violations = emit_gated(&mutated, 1);
    assert!(
        violations.iter().any(|v| v.oracle == "emit-gated"),
        "early emission went unnoticed: {violations:?}"
    );
}

#[test]
fn a_split_group_is_caught_by_config_transparent() {
    let (history, _) = record("q7", false, 800);
    assert!(config_transparent(&history, &history, &[]).is_empty());

    // The bug: a window's bids land on two workers, and each reports its
    // own maximum — the winning row plus a partial one at a lower price.
    let mut values = fold_table(&history)[0].values().to_vec();
    let Value::Int(price) = values[3] else {
        panic!("q7's column 3 is the price: {values:?}")
    };
    values[3] = Value::Int(price - 1);
    let ptime = emitted(&history).last().expect("q7 emits rows").ptime;
    let partial = StreamRow {
        row: Row::new(values),
        undo: false,
        ptime,
        ver: 0,
    };
    let mut mutated = history.clone();
    mutated.push(HistoryEvent::Emitted(partial));
    let violations = config_transparent(&history, &mutated, &[ptime]);
    assert_eq!(violations.len(), 2, "finally and AS OF: {violations:?}");
    assert!(violations.iter().all(|v| v.oracle == "config-transparent"));
}

#[test]
fn a_dropped_row_is_caught_by_replay_identical() {
    let (history, _) = record("q1", false, 800);
    let pos = history
        .iter()
        .position(|e| matches!(e, HistoryEvent::Emitted(_)))
        .expect("q1 emits a row per bid");
    let mut mutated = history.clone();
    mutated.remove(pos);
    assert!(!replay_identical(&history, &mutated).is_empty());
}
