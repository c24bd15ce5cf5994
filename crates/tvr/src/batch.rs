//! Columnar change batches: the unit of vectorized execution.
//!
//! A [`ChangeBatch`] is a run of consecutive [`Change`]s from one stream,
//! stored column-wise ([`Column`] per attribute) with two per-row lanes — the
//! `diff` sign and the processing timestamp each row was fed at — plus an
//! optional *selection vector*. Filters narrow the selection instead of
//! copying rows, so no row materializes between a filter and the projection
//! above it. Rows come back out (via [`ChangeBatch::change`]) only at the
//! changelog/sink boundary or when an operator falls back to per-row
//! processing.
//!
//! Logical vs physical indices: all public row accessors take *logical*
//! indices `0..len()`; the selection vector (if any) maps them to physical
//! storage rows. See `docs/VECTORIZED.md`.
//!
//! Events: the rows one source event produced are adjacent, and an operator
//! that makes several rows out of one (a hopping window, an aggregate's
//! retract/insert pair) marks them with an *origin* lane, because an error
//! on any of them discards them all ([`ChangeBatch::event_range`]).

use std::sync::Arc;

use onesql_types::{Column, Row, Ts, Value};

use crate::change::Change;
use crate::element::Element;

/// A batch's ptime and diff lanes.
pub(crate) type TimeLanes = (Arc<[Ts]>, Arc<[i64]>);

/// A columnar batch of timed changes flowing through the vectorized executor.
#[derive(Clone, Debug)]
pub struct ChangeBatch {
    cols: Vec<Column>,
    diffs: Arc<[i64]>,
    ptimes: Arc<[Ts]>,
    /// Per physical row, an ordinal shared by exactly the rows that came
    /// from one source event. `None`: every row is an event of its own.
    origins: Option<Arc<[u32]>>,
    sel: Option<Vec<u32>>,
}

impl ChangeBatch {
    /// Build a dense batch (no selection) from columns and lanes.
    ///
    /// # Panics
    /// Panics (in debug builds) if lane lengths disagree with column lengths
    /// or if `ptimes` is not monotonically non-decreasing.
    pub fn new_dense(cols: Vec<Column>, diffs: Vec<i64>, ptimes: Vec<Ts>) -> ChangeBatch {
        debug_assert_eq!(diffs.len(), ptimes.len());
        debug_assert!(cols.iter().all(|c| c.len() == diffs.len()));
        debug_assert!(ptimes.windows(2).all(|w| w[0] <= w[1]));
        ChangeBatch {
            cols,
            diffs: diffs.into(),
            ptimes: ptimes.into(),
            origins: None,
            sel: None,
        }
    }

    /// Mark which rows of a dense batch came from the same source event:
    /// `origins[i]` is row `i`'s event, under any numbering that gives the
    /// rows of one event — which are adjacent — the same ordinal and
    /// neighbouring events different ones. A batch without the lane holds
    /// one row per event.
    ///
    /// # Panics
    /// Panics (in debug builds) if the batch is filtered or the lane's
    /// length is not the batch's.
    pub fn with_origins(mut self, origins: Vec<u32>) -> ChangeBatch {
        debug_assert!(self.sel.is_none());
        debug_assert_eq!(origins.len(), self.diffs.len());
        self.origins = Some(origins.into());
        self
    }

    /// Columnarize a run of timed changes.
    ///
    /// Returns `None` if the run is empty or the rows do not all share one
    /// arity (callers fall back to per-row feeding, which reproduces the
    /// oracle's arity error exactly).
    pub fn from_changes(changes: &[(Ts, Change)]) -> Option<ChangeBatch> {
        let first = changes.first()?;
        let arity = first.1.row.arity();
        if changes.iter().any(|(_, c)| c.row.arity() != arity) {
            return None;
        }
        let mut builders: Vec<onesql_types::column::ColumnBuilder> = (0..arity)
            .map(|_| onesql_types::column::ColumnBuilder::with_capacity(changes.len()))
            .collect();
        let mut diffs = Vec::with_capacity(changes.len());
        let mut ptimes = Vec::with_capacity(changes.len());
        for (ptime, change) in changes {
            for (b, v) in builders.iter_mut().zip(change.row.values()) {
                b.push(v.clone());
            }
            diffs.push(change.diff);
            ptimes.push(*ptime);
        }
        let cols = builders.into_iter().map(|b| b.finish()).collect();
        Some(ChangeBatch::new_dense(cols, diffs, ptimes))
    }

    /// The ptime and diff lanes of a batch with no selection, shared.
    pub(crate) fn dense_lanes(&self) -> Option<TimeLanes> {
        self.sel
            .is_none()
            .then(|| (self.ptimes.clone(), self.diffs.clone()))
    }

    /// Number of (logical) rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.diffs.len(),
        }
    }

    /// Whether the batch has no visible rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The physical columns (indexed by physical row ids).
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// The selection vector, if the batch is filtered.
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Map a logical row index to its physical storage row.
    #[inline]
    pub fn phys(&self, i: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[i] as usize,
            None => i,
        }
    }

    /// The diff (change sign/weight) of logical row `i`.
    #[inline]
    pub fn diff(&self, i: usize) -> i64 {
        self.diffs[self.phys(i)]
    }

    /// The processing timestamp logical row `i` was fed at.
    #[inline]
    pub fn ptime(&self, i: usize) -> Ts {
        self.ptimes[self.phys(i)]
    }

    /// The ordinal of the source event logical row `i` came from, for
    /// comparing rows of this batch (and handing on to a batch derived
    /// from it): equal exactly for the rows of one event.
    #[inline]
    pub fn origin(&self, i: usize) -> u32 {
        let p = self.phys(i);
        self.origins.as_ref().map_or(p as u32, |lane| lane[p])
    }

    /// The logical rows that came from the same source event as row `i`.
    /// The executor records all outputs of an event or none, so a row that
    /// fails takes this whole range with it.
    pub fn event_range(&self, i: usize) -> std::ops::Range<usize> {
        if self.origins.is_none() {
            return i..i + 1;
        }
        let event = self.origin(i);
        let from = (0..i)
            .rev()
            .find(|&j| self.origin(j) != event)
            .map_or(0, |j| j + 1);
        let to = (i + 1..self.len())
            .find(|&j| self.origin(j) != event)
            .unwrap_or(self.len());
        from..to
    }

    /// The value at (logical row `i`, column `col`).
    pub fn value(&self, i: usize, col: usize) -> Value {
        self.cols[col].value(self.phys(i))
    }

    /// Materialize logical row `i` as a [`Row`].
    pub fn row(&self, i: usize) -> Row {
        let p = self.phys(i);
        Row::from_values(self.cols.iter().map(|c| c.value(p)))
    }

    /// Materialize logical row `i` as a [`Change`].
    pub fn change(&self, i: usize) -> Change {
        Change {
            row: self.row(i),
            diff: self.diff(i),
        }
    }

    /// Materialize logical row `i` as `(ptime, change)`.
    pub fn timed_change(&self, i: usize) -> (Ts, Change) {
        (self.ptime(i), self.change(i))
    }

    /// Narrow the batch to the given logical rows (a filter result).
    ///
    /// Columns and lanes are shared with `self`; only the selection vector is
    /// rebuilt, composed through any existing selection.
    pub fn select_logical(&self, keep: &[u32]) -> ChangeBatch {
        let sel = keep.iter().map(|&i| self.phys(i as usize) as u32).collect();
        ChangeBatch {
            cols: self.cols.clone(),
            diffs: self.diffs.clone(),
            ptimes: self.ptimes.clone(),
            origins: self.origins.clone(),
            sel: Some(sel),
        }
    }

    /// Replace the columns with `cols` (a projection result), gathering the
    /// lanes — the origin lane too, when there is one — to logical (dense)
    /// order.
    ///
    /// # Panics
    /// Panics (in debug builds) if any new column's length differs from
    /// `self.len()`.
    pub fn with_columns(&self, cols: Vec<Column>) -> ChangeBatch {
        let len = self.len();
        debug_assert!(cols.iter().all(|c| c.len() == len));
        if self.sel.is_none() {
            // Already dense: the lanes are logical order, share them.
            return ChangeBatch {
                cols,
                diffs: self.diffs.clone(),
                ptimes: self.ptimes.clone(),
                origins: self.origins.clone(),
                sel: None,
            };
        }
        let diffs: Vec<i64> = (0..len).map(|i| self.diff(i)).collect();
        let ptimes: Vec<Ts> = (0..len).map(|i| self.ptime(i)).collect();
        let origins = self
            .origins
            .is_some()
            .then(|| (0..len).map(|i| self.origin(i)).collect());
        ChangeBatch {
            cols,
            diffs: diffs.into(),
            ptimes: ptimes.into(),
            origins,
            sel: None,
        }
    }

    /// The logical sub-range `[from, to)` of the batch. Columns and lanes
    /// are shared.
    pub fn slice(&self, from: usize, to: usize) -> ChangeBatch {
        let sel: Vec<u32> = (from..to).map(|i| self.phys(i) as u32).collect();
        ChangeBatch {
            cols: self.cols.clone(),
            diffs: self.diffs.clone(),
            ptimes: self.ptimes.clone(),
            origins: self.origins.clone(),
            sel: Some(sel),
        }
    }

    /// Raise every processing time below `min` up to `min` — the driver's
    /// monotone-clock clamp, applied to a whole batch at the source
    /// boundary. Ptimes are monotone within a batch, so only a prefix can
    /// change; when none do, storage is shared with `self`.
    pub fn clamp_ptimes(&self, min: Ts) -> ChangeBatch {
        match self.ptimes.first() {
            Some(&first) if first < min => ChangeBatch {
                cols: self.cols.clone(),
                diffs: self.diffs.clone(),
                ptimes: self.ptimes.iter().map(|&t| t.max(min)).collect(),
                origins: self.origins.clone(),
                sel: self.sel.clone(),
            },
            _ => self.clone(),
        }
    }

    /// Estimated payload bytes of the visible rows, summed column by
    /// column ([`Column::payload_bytes`]): the total the drivers count as
    /// ingested bytes.
    pub fn payload_bytes(&self) -> u64 {
        let sel = self.sel.as_deref();
        self.cols.iter().map(|c| c.payload_bytes(sel)).sum()
    }
}

/// One unit of operator output on the batch path.
///
/// Operators that stay columnar emit [`BatchOut::Batch`]; operators that
/// fall back to per-row processing emit [`BatchOut::Rows`]: *all* elements
/// produced by one source event, stamped with that event's processing
/// timestamp. Keeping an event's outputs together matters for error
/// exactness — if a downstream operator fails on any of them, the per-row
/// engine would discard the whole event's outputs, so the batch path must be
/// able to do the same: `Rows` by being one event, a `Batch` through its
/// origin lane ([`ChangeBatch::event_range`]). An event never spans two
/// `BatchOut`s.
#[derive(Clone, Debug)]
pub enum BatchOut {
    /// A still-columnar batch of changes.
    Batch(ChangeBatch),
    /// The elements one source event produced, at that event's processing
    /// time.
    Rows(Ts, Vec<Element>),
}

impl BatchOut {
    /// What an operator leaves last in its output when it fails on an
    /// event fed at `ptime`: no elements — a failing event records nothing
    /// — but the clock has reached `ptime`, as the row oracle's had when it
    /// took the event up.
    pub fn failed_at(ptime: Ts) -> BatchOut {
        BatchOut::Rows(ptime, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    fn batch() -> ChangeBatch {
        let changes = vec![
            (Ts::from_millis(1), Change::insert(row!(1i64, "a"))),
            (Ts::from_millis(2), Change::retract(row!(2i64, "b"))),
            (Ts::from_millis(2), Change::insert(row!(3i64, "c"))),
        ];
        ChangeBatch::from_changes(&changes).unwrap()
    }

    #[test]
    fn roundtrip_rows() {
        let b = batch();
        assert_eq!(b.len(), 3);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.row(0), row!(1i64, "a"));
        assert_eq!(b.diff(1), -1);
        assert_eq!(b.ptime(2), Ts::from_millis(2));
        assert_eq!(b.change(2), Change::insert(row!(3i64, "c")));
    }

    #[test]
    fn selection_composes() {
        let b = batch();
        let narrowed = b.select_logical(&[0, 2]);
        assert_eq!(narrowed.len(), 2);
        assert_eq!(narrowed.row(1), row!(3i64, "c"));
        let again = narrowed.select_logical(&[1]);
        assert_eq!(again.len(), 1);
        assert_eq!(again.row(0), row!(3i64, "c"));
        assert_eq!(again.diff(0), 1);
    }

    #[test]
    fn split_shares_storage() {
        let b = batch();
        let (pre, rest) = (b.slice(0, 1), b.slice(1, b.len()));
        assert_eq!(pre.len(), 1);
        assert_eq!(rest.len(), 2);
        assert_eq!(rest.row(0), row!(2i64, "b"));
        assert_eq!(rest.ptime(0), Ts::from_millis(2));
    }

    #[test]
    fn with_columns_gathers_lanes() {
        let b = batch().select_logical(&[2, 2]);
        // Projection to a single constant column.
        let col = Column::from_values(vec![Value::Int(9), Value::Int(9)]);
        let out = b.with_columns(vec![col]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.row(0), row!(9i64));
        assert_eq!(out.diff(0), 1);
        assert_eq!(out.ptime(1), Ts::from_millis(2));
    }

    #[test]
    fn origins_survive_narrowing_and_projection() {
        // Rows 0 and 1 are one event, row 2 another.
        let b = batch().with_origins(vec![4, 4, 9]);
        assert_eq!(b.event_range(0), 0..2);
        assert_eq!(b.event_range(1), 0..2);
        assert_eq!(b.event_range(2), 2..3);
        let tail = b.slice(1, 3);
        assert_eq!(tail.event_range(0), 0..1);
        assert_eq!(tail.origin(0), b.origin(1));
        let kept = b.select_logical(&[0, 1]);
        assert_eq!(kept.event_range(1), 0..2);
        let col = Column::from_values(vec![Value::Int(9), Value::Int(9)]);
        let projected = kept.with_columns(vec![col.clone()]);
        assert_eq!(projected.event_range(0), 0..2);
        // Without the lane every row is its own event, however narrowed.
        let plain = batch().select_logical(&[0, 2]).with_columns(vec![col]);
        assert_eq!(plain.event_range(1), 1..2);
    }

    #[test]
    fn mixed_arity_declines() {
        let changes = vec![
            (Ts::from_millis(1), Change::insert(row!(1i64))),
            (Ts::from_millis(2), Change::insert(row!(1i64, 2i64))),
        ];
        assert!(ChangeBatch::from_changes(&changes).is_none());
        assert!(ChangeBatch::from_changes(&[]).is_none());
    }

    #[test]
    fn payload_bytes_accounting() {
        let changes = vec![
            (
                Ts::from_millis(1),
                Change::insert(row!(1i64, "abc", Value::Null)),
            ),
            (Ts::from_millis(1), Change::insert(row!(2i64, "de", 7i64))),
        ];
        let b = ChangeBatch::from_changes(&changes).unwrap();
        assert_eq!(b.payload_bytes(), (8 + 3 + 1) + (8 + 2 + 8));
        assert_eq!(b.select_logical(&[1]).payload_bytes(), 8 + 2 + 8);
    }
}
