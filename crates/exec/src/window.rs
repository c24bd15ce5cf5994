//! Event-time windowing TVFs: `Tumble` and `Hop` (paper §6.4, Extension 3).
//!
//! Both are *relational* operators: `Tumble` maps each input row to exactly
//! one output row (input columns + `wstart` + `wend`), `Hop` to
//! `ceil(dur / hopsize)` rows. Because window assignment is a pure function
//! of the row's event timestamp, retractions flow through unchanged — the
//! TVF is pointwise in time, as the paper requires of relational operators
//! over TVRs.

use onesql_plan::WindowKind;
use onesql_tvr::{BatchOut, Change, ChangeBatch, Element};
use onesql_types::{Column, ColumnData, Duration, Error, Result, Ts, Value};

use crate::operator::Operator;
use crate::vector::{process_batch_rowwise, split_and_repair};

/// Assign the single tumbling window containing `ts`.
///
/// Windows partition event time into `[k*dur + offset, (k+1)*dur + offset)`
/// intervals; `div_euclid` keeps the math correct for timestamps before the
/// epoch.
pub fn tumble_window(ts: Ts, dur: Duration, offset: Duration) -> (Ts, Ts) {
    let shifted = ts.millis() - offset.millis();
    let start = shifted.div_euclid(dur.millis()) * dur.millis() + offset.millis();
    (Ts(start), Ts(start + dur.millis()))
}

/// Assign all hopping windows containing `ts`, in ascending `wstart` order.
/// Window starts are the instants `k*hopsize + offset`; a window covers
/// `[start, start + dur)`.
pub fn hop_windows(ts: Ts, dur: Duration, hopsize: Duration, offset: Duration) -> Vec<(Ts, Ts)> {
    let (first, count) = hop_starts(ts, dur, hopsize, offset);
    windows(first, count, hopsize, dur).collect()
}

/// The earliest start of a hopping window containing `ts`, and how many
/// windows (starting one `hopsize` apart) contain it: none when `ts` falls
/// into the gap a `hopsize` longer than `dur` leaves.
fn hop_starts(ts: Ts, dur: Duration, hopsize: Duration, offset: Duration) -> (Ts, i64) {
    let hop = hopsize.millis();
    // Largest aligned start <= ts; a start `k` hops earlier still covers
    // `ts` while `k * hop < covered`.
    let max_start = (ts.millis() - offset.millis()).div_euclid(hop) * hop + offset.millis();
    let covered = max_start + dur.millis() - ts.millis();
    let count = if covered > 0 {
        (covered + hop - 1) / hop
    } else {
        0
    };
    (Ts(max_start - (count - 1) * hop), count)
}

/// `count` windows of length `len`, the first at `first`, `step` apart.
fn windows(first: Ts, count: i64, step: Duration, len: Duration) -> impl Iterator<Item = (Ts, Ts)> {
    (0..count).map(move |k| {
        let start = first.millis() + k * step.millis();
        (Ts(start), Ts(start + len.millis()))
    })
}

/// The windowing operator: appends `wstart`/`wend` columns per assignment.
pub struct Window {
    kind: WindowKind,
    time_col: usize,
}

impl Window {
    /// Create from plan parameters.
    pub fn new(kind: WindowKind, time_col: usize) -> Window {
        Window { kind, time_col }
    }

    /// The windows `ts` is assigned to, in ascending `wstart` order — as an
    /// iterator, so that the batch path allocates nothing per row.
    fn assign(&self, ts: Ts) -> impl Iterator<Item = (Ts, Ts)> {
        match self.kind {
            WindowKind::Tumble { dur, offset } => {
                windows(tumble_window(ts, dur, offset).0, 1, dur, dur)
            }
            WindowKind::Hop {
                dur,
                hopsize,
                offset,
            } => {
                let (first, count) = hop_starts(ts, dur, hopsize, offset);
                windows(first, count, hopsize, dur)
            }
            // Session windows assign a provisional [ts, ts+gap) interval per
            // row; downstream session-merging is the aggregate's job. The
            // paper lists full sessionization as future work (§8); we expose
            // the per-row gap window, which is the standard building block.
            WindowKind::Session { gap } => windows(ts, 1, gap, gap),
        }
    }

    /// Build the expanded output batch: source columns gathered per
    /// assignment (`idx[j]` = source logical row of output row `j`) plus the
    /// appended `wstart`/`wend` columns. Lanes are gathered the same way so
    /// per-output-row diffs/ptimes match the row oracle exactly, and the
    /// assignments of one row share its origin: they stand or fall together.
    fn emit_expanded(
        &self,
        batch: &ChangeBatch,
        idx: &[u32],
        wstarts: Vec<Ts>,
        wends: Vec<Ts>,
        out: &mut Vec<BatchOut>,
    ) {
        if idx.is_empty() {
            return;
        }
        let phys: Vec<u32> = idx.iter().map(|&i| batch.phys(i as usize) as u32).collect();
        let mut cols: Vec<Column> = batch.columns().iter().map(|c| c.gather(&phys)).collect();
        cols.push(Column::new(ColumnData::Ts {
            vals: wstarts,
            nulls: None,
        }));
        cols.push(Column::new(ColumnData::Ts {
            vals: wends,
            nulls: None,
        }));
        let diffs: Vec<i64> = idx.iter().map(|&i| batch.diff(i as usize)).collect();
        let ptimes: Vec<Ts> = idx.iter().map(|&i| batch.ptime(i as usize)).collect();
        let origins = idx.iter().map(|&i| batch.origin(i as usize)).collect();
        let expanded = ChangeBatch::new_dense(cols, diffs, ptimes).with_origins(origins);
        out.push(BatchOut::Batch(expanded));
    }
}

impl Operator for Window {
    fn process(
        &mut self,
        _port: usize,
        elem: Element,
        _now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        match elem {
            Element::Data(change) => {
                let ts = match change.row.value(self.time_col)? {
                    Value::Ts(t) => *t,
                    Value::Null => {
                        return Err(Error::exec("NULL event timestamp in windowing column"))
                    }
                    other => {
                        return Err(Error::exec(format!(
                            "windowing column must be TIMESTAMP, got {}",
                            other.data_type()
                        )))
                    }
                };
                for (wstart, wend) in self.assign(ts) {
                    let row = change
                        .row
                        .with_appended(&[Value::Ts(wstart), Value::Ts(wend)]);
                    out.push(Element::Data(Change::with_diff(row, change.diff)));
                }
            }
            // Input watermark remains a valid lower bound for `wend`:
            // future rows have ts > wm, and every window containing such a
            // row ends strictly after its timestamp, so wend > wm too.
            wm @ Element::Watermark(_) => out.push(wm),
        }
        Ok(())
    }

    fn process_batch(
        &mut self,
        port: usize,
        batch: &ChangeBatch,
        out: &mut Vec<BatchOut>,
    ) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.time_col >= batch.arity() {
            // Out-of-range time column: the row oracle reproduces the exact
            // `Row::value` error at the first row.
            return process_batch_rowwise(self, port, batch, out);
        }
        // Expand assignments with a sequential scan; `idx` maps each output
        // row back to its source logical row.
        let n = batch.len();
        let mut idx: Vec<u32> = Vec::with_capacity(n);
        let mut wstarts: Vec<Ts> = Vec::with_capacity(n);
        let mut wends: Vec<Ts> = Vec::with_capacity(n);
        for i in 0..n {
            let ts = match batch.value(i, self.time_col) {
                Value::Ts(t) => t,
                // The row oracle has the exact error for row `i`.
                _ => return split_and_repair(self, port, batch, i, out),
            };
            for (ws, we) in self.assign(ts) {
                idx.push(i as u32);
                wstarts.push(ws);
                wends.push(we);
            }
        }
        self.emit_expanded(batch, &idx, wstarts, wends, out);
        Ok(())
    }

    fn name(&self) -> &'static str {
        match self.kind {
            WindowKind::Tumble { .. } => "Tumble",
            WindowKind::Hop { .. } => "Hop",
            WindowKind::Session { .. } => "Session",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    const M10: Duration = Duration(10 * 60_000);
    const M5: Duration = Duration(5 * 60_000);

    #[test]
    fn tumble_assignment_matches_listing_5() {
        // From the paper: 8:07 -> [8:00, 8:10); 8:11 -> [8:10, 8:20).
        assert_eq!(
            tumble_window(Ts::hm(8, 7), M10, Duration::ZERO),
            (Ts::hm(8, 0), Ts::hm(8, 10))
        );
        assert_eq!(
            tumble_window(Ts::hm(8, 11), M10, Duration::ZERO),
            (Ts::hm(8, 10), Ts::hm(8, 20))
        );
        // Boundary: a row at exactly 8:10 belongs to [8:10, 8:20).
        assert_eq!(
            tumble_window(Ts::hm(8, 10), M10, Duration::ZERO),
            (Ts::hm(8, 10), Ts::hm(8, 20))
        );
    }

    #[test]
    fn tumble_with_offset() {
        let off = Duration::from_minutes(3);
        assert_eq!(
            tumble_window(Ts::hm(8, 2), M10, off),
            (Ts::hm(7, 53), Ts::hm(8, 3))
        );
        assert_eq!(
            tumble_window(Ts::hm(8, 3), M10, off),
            (Ts::hm(8, 3), Ts::hm(8, 13))
        );
    }

    #[test]
    fn tumble_negative_timestamps() {
        let (s, e) = tumble_window(Ts::from_minutes(-7), M10, Duration::ZERO);
        assert_eq!(s, Ts::from_minutes(-10));
        assert_eq!(e, Ts::from_minutes(0));
    }

    #[test]
    fn hop_assignment_matches_listing_7() {
        // From the paper: bidtime 8:07 with dur 10m hop 5m ->
        // [8:00, 8:10) and [8:05, 8:15).
        assert_eq!(
            hop_windows(Ts::hm(8, 7), M10, M5, Duration::ZERO),
            vec![(Ts::hm(8, 0), Ts::hm(8, 10)), (Ts::hm(8, 5), Ts::hm(8, 15)),]
        );
        // 8:11 -> [8:05, 8:15) and [8:10, 8:20).
        assert_eq!(
            hop_windows(Ts::hm(8, 11), M10, M5, Duration::ZERO),
            vec![
                (Ts::hm(8, 5), Ts::hm(8, 15)),
                (Ts::hm(8, 10), Ts::hm(8, 20)),
            ]
        );
    }

    #[test]
    fn hop_with_gaps_when_hopsize_exceeds_dur() {
        // hopsize 10, dur 5: windows [0,5), [10,15), ... — 7 falls in a gap.
        let dur = Duration::from_minutes(5);
        let hop = Duration::from_minutes(10);
        assert!(hop_windows(Ts::from_minutes(7), dur, hop, Duration::ZERO).is_empty());
        assert_eq!(
            hop_windows(Ts::from_minutes(12), dur, hop, Duration::ZERO),
            vec![(Ts::from_minutes(10), Ts::from_minutes(15))]
        );
    }

    #[test]
    fn hop_window_count_is_dur_over_hopsize() {
        // dur 10m, hop 2m: every instant is covered by 5 windows.
        let hop = Duration::from_minutes(2);
        let windows = hop_windows(Ts::hm(8, 7), M10, hop, Duration::ZERO);
        assert_eq!(windows.len(), 5);
        for (s, e) in windows {
            assert!(s <= Ts::hm(8, 7) && Ts::hm(8, 7) < e);
            assert_eq!(e - s, M10);
        }
    }

    #[test]
    fn tumble_operator_appends_columns_and_preserves_diff() {
        let mut w = Window::new(
            WindowKind::Tumble {
                dur: M10,
                offset: Duration::ZERO,
            },
            0,
        );
        let mut out = Vec::new();
        w.process(
            0,
            Element::Data(Change::with_diff(row!(Ts::hm(8, 7), 2i64, "A"), -1)),
            Ts(0),
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out,
            vec![Element::Data(Change::with_diff(
                row!(Ts::hm(8, 7), 2i64, "A", Ts::hm(8, 0), Ts::hm(8, 10)),
                -1
            ))]
        );
    }

    #[test]
    fn hop_operator_multiplies_rows() {
        let mut w = Window::new(
            WindowKind::Hop {
                dur: M10,
                hopsize: M5,
                offset: Duration::ZERO,
            },
            0,
        );
        let mut out = Vec::new();
        w.process(
            0,
            Element::insert(row!(Ts::hm(8, 7), 2i64)),
            Ts(0),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn watermark_passes_through() {
        let mut w = Window::new(
            WindowKind::Tumble {
                dur: M10,
                offset: Duration::ZERO,
            },
            0,
        );
        let mut out = Vec::new();
        w.process(0, Element::watermark(Ts::hm(8, 5)), Ts(0), &mut out)
            .unwrap();
        assert_eq!(out, vec![Element::watermark(Ts::hm(8, 5))]);
    }

    #[test]
    fn bad_time_column_errors() {
        let mut w = Window::new(
            WindowKind::Tumble {
                dur: M10,
                offset: Duration::ZERO,
            },
            0,
        );
        let mut out = Vec::new();
        assert!(w
            .process(0, Element::insert(row!(42i64)), Ts(0), &mut out)
            .is_err());
        assert!(w
            .process(
                0,
                Element::insert(onesql_types::Row::new(vec![Value::Null])),
                Ts(0),
                &mut out
            )
            .is_err());
    }
}
