//! Composable oracles over observable pipeline histories.
//!
//! Every oracle is a pure function from one or two [`HistoryEvent`]
//! sequences to a list of [`Violation`]s — no engine internals, no
//! clocks, no I/O. They operate on the *effective* history: the raw tap
//! record with every crash-discarded staging suffix spliced out (see
//! [`effective_history`]), which is exactly what a transactional sink's
//! truncation leaves on disk.

use std::collections::BTreeMap;
use std::fmt;

use onesql_core::HistoryEvent;
use onesql_exec::StreamRow;
use onesql_time::Watermark;
use onesql_types::{Row, Ts};

/// One oracle violation: which oracle fired and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The oracle's stable name (`watermark-monotone`, …).
    pub oracle: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl Violation {
    fn new(oracle: &'static str, detail: impl Into<String>) -> Violation {
        Violation {
            oracle,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Splice a raw (possibly crash-spanning) tap record into the history an
/// uninterrupted observer would have seen.
///
/// A [`HistoryEvent::Restored`]`{epoch}` marker means everything recorded
/// after the matching [`HistoryEvent::CheckpointTaken`]`{epoch}` was
/// uncommitted staging that the crash discarded, so it is dropped — the
/// restored incarnation regenerates it. If no matching checkpoint marker
/// exists (the tap was attached after the checkpoint was taken), the
/// whole prefix is void. Epoch markers themselves are filtered out of the
/// result: the effective history contains only the three observable
/// event kinds (rows, watermarks, the finish marker).
pub fn effective_history(raw: &[HistoryEvent]) -> Vec<HistoryEvent> {
    let mut out: Vec<HistoryEvent> = Vec::with_capacity(raw.len());
    for event in raw {
        match event {
            HistoryEvent::Restored { epoch } => {
                match out
                    .iter()
                    .rposition(|e| *e == HistoryEvent::CheckpointTaken { epoch: *epoch })
                {
                    Some(pos) => out.truncate(pos + 1),
                    None => out.clear(),
                }
            }
            other => out.push(other.clone()),
        }
    }
    out.retain(|e| {
        !matches!(
            e,
            HistoryEvent::CheckpointTaken { .. } | HistoryEvent::Restored { .. }
        )
    });
    out
}

/// The emitted-row subsequence of a history.
pub fn emitted(history: &[HistoryEvent]) -> Vec<&StreamRow> {
    history
        .iter()
        .filter_map(|e| match e {
            HistoryEvent::Emitted(sr) => Some(sr),
            _ => None,
        })
        .collect()
}

/// The watermark subsequence of a history.
pub fn watermarks(history: &[HistoryEvent]) -> Vec<Watermark> {
    history
        .iter()
        .filter_map(|e| match e {
            HistoryEvent::Watermark(w) => Some(*w),
            _ => None,
        })
        .collect()
}

/// Fold a history's emitted rows into the table they denote: the
/// stream/table duality applied to the changelog (inserts +1, retractions
/// −1), negative multiplicities clamped, rows sorted.
pub fn fold_table(history: &[HistoryEvent]) -> Vec<Row> {
    fold_table_at(history, Ts::MAX)
}

/// Fold a history's emitted rows *up to and including* ptime `at` — the
/// table an `AS OF` probe at `at` should denote.
pub fn fold_table_at(history: &[HistoryEvent], at: Ts) -> Vec<Row> {
    let mut counts: BTreeMap<Row, i64> = BTreeMap::new();
    for sr in emitted(history) {
        if sr.ptime <= at {
            *counts.entry(sr.row.clone()).or_default() += if sr.undo { -1 } else { 1 };
        }
    }
    counts
        .into_iter()
        .flat_map(|(row, n)| (0..n.max(0)).map(move |_| row.clone()))
        .collect()
}

/// **watermark-monotone**: the watermark values a sink hears never
/// decrease, and none arrives after the finish marker.
pub fn watermark_monotone(history: &[HistoryEvent]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut last: Option<Watermark> = None;
    let mut finished = false;
    for (i, event) in history.iter().enumerate() {
        match event {
            HistoryEvent::Watermark(w) => {
                if let Some(prev) = last {
                    if *w < prev {
                        violations.push(Violation::new(
                            "watermark-monotone",
                            format!("watermark regressed {prev:?} -> {w:?} at event {i}"),
                        ));
                    }
                }
                if finished {
                    violations.push(Violation::new(
                        "watermark-monotone",
                        format!("watermark {w:?} delivered after Finished at event {i}"),
                    ));
                }
                last = Some(*w);
            }
            HistoryEvent::Finished => finished = true,
            _ => {}
        }
    }
    violations
}

/// **retraction-balanced**: every retraction matches a prior insert — the
/// keyed multiset the changelog denotes never goes negative.
pub fn retraction_balanced(history: &[HistoryEvent]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut counts: BTreeMap<&Row, i64> = BTreeMap::new();
    for (i, sr) in emitted(history).into_iter().enumerate() {
        let n = counts.entry(&sr.row).or_default();
        *n += if sr.undo { -1 } else { 1 };
        if *n < 0 {
            violations.push(Violation::new(
                "retraction-balanced",
                format!(
                    "retraction without a matching prior insert at emitted row {i}: {:?}",
                    sr.row
                ),
            ));
            // Clamp so one spurious retraction reports once, not on
            // every later touch of the same row.
            *n = 0;
        }
    }
    violations
}

/// **retraction-balanced** (table form): the multiset stays non-negative
/// *and* its final fold equals the table the operators report — so a
/// dropped retraction (fold too big) or a dropped insert (fold too small)
/// is caught even when the running count never dips below zero.
pub fn retraction_balanced_against(
    history: &[HistoryEvent],
    expected_table: &[Row],
) -> Vec<Violation> {
    let mut violations = retraction_balanced(history);
    let folded = fold_table(history);
    if folded != expected_table {
        violations.push(Violation::new(
            "retraction-balanced",
            format!(
                "changelog fold disagrees with the operator table: \
                 fold has {} row(s), table has {} ({})",
                folded.len(),
                expected_table.len(),
                first_diff(&folded, expected_table),
            ),
        ));
    }
    violations
}

/// **emit-gated**: under `EMIT AFTER WATERMARK`, no row escapes ahead of
/// the watermark that releases it. `gate_col` names the output column
/// holding the row's window-end timestamp; the first watermark a sink
/// hears *after* the row (the releasing notification, or a later one)
/// must be at or past that window end. `Finished` closes every gate.
pub fn emit_gated(history: &[HistoryEvent], gate_col: usize) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (i, event) in history.iter().enumerate() {
        let HistoryEvent::Emitted(sr) = event else {
            continue;
        };
        let Some(gate) = row_ts(&sr.row, gate_col) else {
            violations.push(Violation::new(
                "emit-gated",
                format!("emitted row {i} has no timestamp in gate column {gate_col}"),
            ));
            continue;
        };
        let released = history[i + 1..].iter().find_map(|e| match e {
            HistoryEvent::Watermark(w) => Some(w.0 >= gate),
            HistoryEvent::Finished => Some(true),
            _ => None,
        });
        if released != Some(true) {
            violations.push(Violation::new(
                "emit-gated",
                format!(
                    "row with window end {gate:?} emitted at event {i} ahead of \
                     any watermark reaching it"
                ),
            ));
        }
    }
    violations
}

/// **replay-identical**: a killed-and-restored run's effective history
/// carries exactly the rows of the uninterrupted reference run, in the
/// same order, and both histories end at the same watermark. (Watermark
/// *observations* may differ — checkpoint barriers can surface
/// intermediate advances the reference never notifies — so only rows are
/// compared element-wise.)
pub fn replay_identical(reference: &[HistoryEvent], replayed: &[HistoryEvent]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let a = emitted(reference);
    let b = emitted(replayed);
    if a.len() != b.len() {
        violations.push(Violation::new(
            "replay-identical",
            format!(
                "reference emitted {} row(s), replay emitted {}",
                a.len(),
                b.len()
            ),
        ));
    }
    if let Some(i) = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]) {
        violations.push(Violation::new(
            "replay-identical",
            format!(
                "histories diverge at emitted row {i}: reference {:?}, replay {:?}",
                a[i], b[i]
            ),
        ));
    }
    let (wa, wb) = (watermarks(reference), watermarks(replayed));
    if wa.last() != wb.last() {
        violations.push(Violation::new(
            "replay-identical",
            format!(
                "final watermarks differ: reference {:?}, replay {:?}",
                wa.last(),
                wb.last()
            ),
        ));
    }
    violations
}

/// **as-of-stable** (cross-history form): a probe of the table `AS OF`
/// ptime `at` must equal the fold of the effective history at `at`.
/// Re-read stability within a live incarnation is checked online by the
/// harness; this closes the loop against the full record.
pub fn as_of_stable(history: &[HistoryEvent], at: Ts, probed: &[Row]) -> Vec<Violation> {
    let expected = fold_table_at(history, at);
    if probed != expected {
        vec![Violation::new(
            "as-of-stable",
            format!(
                "AS OF {at:?} probe saw {} row(s) but the history folds to {} ({})",
                probed.len(),
                expected.len(),
                first_diff(probed, &expected),
            ),
        )]
    } else {
        Vec::new()
    }
}

/// **config-transparent**: a run under another configuration denotes the
/// reference's table, finally and `AS OF` each of the `probes` instants —
/// a group split across workers shows up as extra partial rows.
pub fn config_transparent(
    reference: &[HistoryEvent],
    variation: &[HistoryEvent],
    probes: &[Ts],
) -> Vec<Violation> {
    let instants = probes.iter().copied().chain([Ts::MAX]);
    instants
        .filter_map(|at| {
            let (want, got) = (fold_table_at(reference, at), fold_table_at(variation, at));
            let when = match at {
                Ts::MAX => "finally".to_string(),
                at => format!("AS OF {at:?}"),
            };
            (got != want).then(|| {
                Violation::new(
                    "config-transparent",
                    format!(
                        "{when} the variation folds to {} row(s), the reference to {} ({})",
                        got.len(),
                        want.len(),
                        first_diff(&got, &want),
                    ),
                )
            })
        })
        .collect()
}

fn row_ts(row: &Row, col: usize) -> Option<Ts> {
    use onesql_types::Value;
    match row.values().get(col) {
        Some(Value::Ts(ts)) => Some(*ts),
        _ => None,
    }
}

fn first_diff(a: &[Row], b: &[Row]) -> String {
    let i = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]);
    match i {
        Some(i) => format!("first difference at row {i}: {:?} vs {:?}", a[i], b[i]),
        None => "one is a prefix of the other".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    fn ins(v: i64, ptime: i64) -> HistoryEvent {
        HistoryEvent::Emitted(StreamRow {
            row: row!(v),
            undo: false,
            ptime: Ts(ptime),
            ver: 0,
        })
    }

    fn del(v: i64, ptime: i64) -> HistoryEvent {
        HistoryEvent::Emitted(StreamRow {
            row: row!(v),
            undo: true,
            ptime: Ts(ptime),
            ver: 1,
        })
    }

    fn wm(t: i64) -> HistoryEvent {
        HistoryEvent::Watermark(Watermark(Ts(t)))
    }

    #[test]
    fn splice_discards_the_staged_suffix() {
        let raw = vec![
            ins(1, 10),
            HistoryEvent::CheckpointTaken { epoch: 1 },
            ins(2, 20),
            wm(15),
            HistoryEvent::Restored { epoch: 1 },
            ins(2, 20),
            HistoryEvent::Finished,
        ];
        assert_eq!(
            effective_history(&raw),
            vec![ins(1, 10), ins(2, 20), HistoryEvent::Finished]
        );
    }

    #[test]
    fn splice_handles_double_kill_of_the_same_epoch() {
        let raw = vec![
            ins(1, 10),
            HistoryEvent::CheckpointTaken { epoch: 1 },
            ins(2, 20),
            HistoryEvent::Restored { epoch: 1 },
            ins(9, 20),
            HistoryEvent::Restored { epoch: 1 },
            ins(2, 20),
        ];
        assert_eq!(effective_history(&raw), vec![ins(1, 10), ins(2, 20)]);
    }

    #[test]
    fn splice_with_no_matching_checkpoint_voids_the_prefix() {
        let raw = vec![ins(1, 10), HistoryEvent::Restored { epoch: 3 }, ins(2, 20)];
        assert_eq!(effective_history(&raw), vec![ins(2, 20)]);
    }

    #[test]
    fn monotone_watermarks_pass_and_regressions_fail() {
        assert!(watermark_monotone(&[wm(1), wm(1), wm(5)]).is_empty());
        let v = watermark_monotone(&[wm(5), wm(3)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "watermark-monotone");
    }

    #[test]
    fn balanced_retractions_pass_spurious_ones_fail() {
        assert!(retraction_balanced(&[ins(1, 10), del(1, 20), ins(1, 20)]).is_empty());
        let v = retraction_balanced(&[del(1, 10)]);
        assert_eq!(v.len(), 1);
        // Clamping: the same spurious retraction reports once.
        let v = retraction_balanced(&[del(1, 10), ins(1, 20), del(1, 30)]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn fold_against_table_catches_a_dropped_retraction() {
        // History as recorded drops the retraction of row 1: the running
        // count never goes negative, but the fold keeps a row the
        // operator table no longer has.
        let history = vec![ins(1, 10), ins(2, 20)];
        let expected = vec![row!(2i64)];
        let v = retraction_balanced_against(&history, &expected);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "retraction-balanced");
    }

    #[test]
    fn gated_rows_must_precede_a_reaching_watermark() {
        let gated = |t: i64, p: i64| {
            HistoryEvent::Emitted(StreamRow {
                row: row!(Ts(t), 7i64),
                undo: false,
                ptime: Ts(p),
                ver: 0,
            })
        };
        assert!(emit_gated(&[gated(10, 12), wm(10)], 0).is_empty());
        assert!(emit_gated(&[gated(10, 12), HistoryEvent::Finished], 0).is_empty());
        let v = emit_gated(&[gated(10, 12), wm(9)], 0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "emit-gated");
    }

    #[test]
    fn replay_divergence_is_reported() {
        let a = vec![ins(1, 10), wm(10), HistoryEvent::Finished];
        let b = vec![ins(1, 10), wm(5), wm(10), HistoryEvent::Finished];
        // Extra intermediate watermark observations are fine.
        assert!(replay_identical(&a, &b).is_empty());
        let c = vec![ins(2, 10), wm(10), HistoryEvent::Finished];
        assert!(!replay_identical(&a, &c).is_empty());
    }

    #[test]
    fn as_of_folds_only_up_to_the_probe_point() {
        let h = vec![ins(1, 10), del(1, 20), ins(2, 20)];
        assert!(as_of_stable(&h, Ts(15), &[row!(1i64)]).is_empty());
        assert!(as_of_stable(&h, Ts(25), &[row!(2i64)]).is_empty());
        assert_eq!(as_of_stable(&h, Ts(15), &[row!(2i64)]).len(), 1);
    }
}
