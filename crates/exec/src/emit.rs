//! Materialization control: `EMIT` operators and the changelog renderer.
//!
//! Implements §6.5 of the paper:
//!
//! - [`WatermarkGate`] — `EMIT AFTER WATERMARK` (Extension 5): holds back
//!   speculative changes per event-time grouping and releases only the
//!   consolidated, final rows once the watermark closes the grouping.
//!   Pending insert/retract pairs cancel, so non-final revisions are never
//!   materialized (Listings 10–13).
//! - [`DelayCoalescer`] — `EMIT AFTER DELAY d` (Extension 6): after the
//!   first change to a given event-time grouping, delays materialization by
//!   `d` of processing time and emits the *net* change at the deadline
//!   (Listing 14). With `fire_on_watermark`, also flushes a grouping the
//!   moment its watermark closes — the combined Extension 7
//!   early/on-time/late pattern.
//! - [`render_stream`] — `EMIT STREAM` (Extension 4): renders a stamped
//!   changelog with the `undo` / `ptime` / `ver` metadata columns, where
//!   `ver` numbers revisions per event-time grouping (Listing 9).
//!   [`StreamRenderer::render_batch`] renders the same rows as columns, a
//!   [`StreamBatch`], without building them.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};

use onesql_state::{Checkpoint, Codec, MulRotate, StateMetrics};
use onesql_time::Watermark;
use onesql_tvr::changelog::Segment;
use onesql_tvr::{Change, Changelog, Element, TimedChange};
use onesql_types::{Column, ColumnData, Duration, Error, Result, Row, Ts, Value};

use crate::operator::Operator;

/// Names of the metadata columns appended by `EMIT STREAM`.
pub const STREAM_META_COLUMNS: [&str; 3] = ["undo", "ptime", "ver"];

/// The completion timestamp of a grouping key (a row's event-time columns):
/// the maximum of its event-time values. Empty keys (no event-time columns)
/// complete only at end of stream.
fn completion_ts(key: &Row) -> Ts {
    key.values()
        .iter()
        .filter_map(|v| match v {
            Value::Ts(t) => Some(*t),
            _ => None,
        })
        .max()
        .unwrap_or(Ts::MAX)
}

/// `EMIT AFTER WATERMARK`: only complete rows are materialized.
pub struct WatermarkGate {
    event_time_cols: Vec<usize>,
    /// Pending changes keyed by `(completion ts, row)` for ordered release.
    pending: BTreeMap<(Ts, Row), i64>,
    watermark: Watermark,
}

impl WatermarkGate {
    /// Gate on the given event-time columns of the input schema.
    pub fn new(event_time_cols: Vec<usize>) -> WatermarkGate {
        WatermarkGate {
            event_time_cols,
            pending: BTreeMap::new(),
            watermark: Watermark::MIN,
        }
    }
}

impl Operator for WatermarkGate {
    fn process(
        &mut self,
        _port: usize,
        elem: Element,
        _now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        match elem {
            Element::Data(change) => {
                let ts = completion_ts(&change.row.project(&self.event_time_cols)?);
                if self.watermark.closes(ts) {
                    // Already complete (late-but-allowed revision): pass
                    // through so the materialized view converges.
                    out.push(Element::Data(change));
                } else {
                    let map_key = (ts, change.row);
                    let entry = self.pending.entry(map_key.clone()).or_insert(0);
                    *entry += change.diff;
                    if *entry == 0 {
                        // Cancelled revisions vanish without materializing.
                        self.pending.remove(&map_key);
                    }
                }
            }
            Element::Watermark(wm) => {
                if !self.watermark.advance_to(wm) {
                    return Ok(());
                }
                // Release everything now complete, in (ts, row) order, data
                // before the watermark.
                let watermark = self.watermark;
                while let Some(entry) = self.pending.first_entry() {
                    if !watermark.closes(entry.key().0) {
                        break;
                    }
                    let ((_, row), diff) = entry.remove_entry();
                    if diff != 0 {
                        out.push(Element::Data(Change::with_diff(row, diff)));
                    }
                }
                out.push(Element::Watermark(watermark));
            }
        }
        Ok(())
    }

    fn state_metrics(&self) -> StateMetrics {
        StateMetrics {
            keys: self.pending.len(),
            encoded_bytes: 0,
        }
    }

    fn checkpoint(&self) -> Result<Option<Checkpoint>> {
        let pending: Vec<((Ts, Row), i64)> =
            self.pending.iter().map(|(k, v)| (k.clone(), *v)).collect();
        Ok(Some(Checkpoint((self.watermark.ts(), pending).to_bytes())))
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        type GateSnapshot = (Ts, Vec<((Ts, Row), i64)>);
        let (wm, pending): GateSnapshot = Codec::from_bytes(&checkpoint.0)?;
        self.watermark = Watermark(wm);
        self.pending = pending.into_iter().collect();
        Ok(())
    }

    fn name(&self) -> &'static str {
        "WatermarkGate"
    }
}

/// Encoded snapshot shape for [`DelayCoalescer`] checkpoints: the
/// watermark, then each grouping's key, deadline and net changes.
type DelaySnapshot = (Ts, Vec<DelayEntry>);
type DelayEntry = (Row, (Option<Ts>, Vec<(Row, i64)>));

/// Per-grouping pending state for [`DelayCoalescer`].
#[derive(Debug, Default)]
struct DelayBucket {
    /// Net changes since the last materialization.
    delta: BTreeMap<Row, i64>,
    /// Armed processing-time deadline, if any.
    deadline: Option<Ts>,
}

/// `EMIT [STREAM] AFTER DELAY d`: coalesces updates per event-time grouping
/// with a processing-time delay.
pub struct DelayCoalescer {
    delay: Duration,
    event_time_cols: Vec<usize>,
    /// Also flush a grouping when the watermark closes it (Extension 7).
    fire_on_watermark: bool,
    buckets: BTreeMap<Row, DelayBucket>,
    watermark: Watermark,
}

impl DelayCoalescer {
    /// Create with delay `d`, grouping on the given event-time columns.
    pub fn new(
        delay: Duration,
        event_time_cols: Vec<usize>,
        fire_on_watermark: bool,
    ) -> DelayCoalescer {
        DelayCoalescer {
            delay,
            event_time_cols,
            fire_on_watermark,
            buckets: BTreeMap::new(),
            watermark: Watermark::MIN,
        }
    }

    /// The earliest armed deadline (executor uses this to step the clock
    /// through deadlines so `ptime` stamps are exact).
    pub fn earliest_deadline(&self) -> Option<Ts> {
        self.buckets.values().filter_map(|b| b.deadline).min()
    }

    fn flush_bucket(bucket: &mut DelayBucket, out: &mut Vec<Element>) {
        bucket.deadline = None;
        // Retractions first, then inserts, each in row order — downstream
        // sees a consistent transition (Listing 14 shows `undo` first).
        let delta = std::mem::take(&mut bucket.delta);
        let (neg, pos): (Vec<_>, Vec<_>) = delta
            .into_iter()
            .filter(|(_, d)| *d != 0)
            .partition(|(_, d)| *d < 0);
        for (row, diff) in neg.into_iter().chain(pos) {
            out.push(Element::Data(Change::with_diff(row, diff)));
        }
    }
}

impl Operator for DelayCoalescer {
    fn process(
        &mut self,
        _port: usize,
        elem: Element,
        now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()> {
        match elem {
            Element::Data(change) => {
                let key = change.row.project(&self.event_time_cols)?;
                let bucket = self.buckets.entry(key).or_default();
                let entry = bucket.delta.entry(change.row).or_insert(0);
                *entry += change.diff;
                // First change since the last materialization arms a timer:
                // "a delay imposed on materialization after a change to a
                // given aggregate occurs" (§6.5.2).
                if bucket.deadline.is_none() {
                    bucket.deadline = Some(now + self.delay);
                }
            }
            Element::Watermark(wm) => {
                if !self.watermark.advance_to(wm) {
                    return Ok(());
                }
                if self.fire_on_watermark {
                    let watermark = self.watermark;
                    for (key, bucket) in self.buckets.iter_mut() {
                        if watermark.closes(completion_ts(key)) && bucket.deadline.is_some() {
                            Self::flush_bucket(bucket, out);
                        }
                    }
                    self.buckets.retain(|_, b| b.deadline.is_some());
                }
                out.push(Element::Watermark(self.watermark));
            }
        }
        Ok(())
    }

    fn on_processing_time(&mut self, now: Ts, out: &mut Vec<Element>) -> Result<()> {
        for bucket in self.buckets.values_mut() {
            if bucket.deadline.is_some_and(|d| d <= now) {
                Self::flush_bucket(bucket, out);
            }
        }
        self.buckets.retain(|_, b| b.deadline.is_some());
        Ok(())
    }

    fn next_timer(&self) -> Option<Ts> {
        self.earliest_deadline()
    }

    fn uses_timers(&self) -> bool {
        // Timers assume the clock pauses between individual events; batches
        // carry many ptimes at once, so timer trees opt out of vectorization.
        true
    }

    fn state_metrics(&self) -> StateMetrics {
        StateMetrics {
            keys: self.buckets.len(),
            encoded_bytes: 0,
        }
    }

    fn checkpoint(&self) -> Result<Option<Checkpoint>> {
        let bucket = |(key, b): (&Row, &DelayBucket)| {
            let delta = b.delta.iter().map(|(r, d)| (r.clone(), *d)).collect();
            (key.clone(), (b.deadline, delta))
        };
        let snapshot: DelaySnapshot = (
            self.watermark.ts(),
            self.buckets.iter().map(bucket).collect(),
        );
        Ok(Some(Checkpoint(snapshot.to_bytes())))
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let (wm, buckets): DelaySnapshot = Codec::from_bytes(&checkpoint.0)?;
        self.watermark = Watermark(wm);
        let bucket = |(key, (deadline, delta)): DelayEntry| {
            let delta = delta.into_iter().collect();
            (key, DelayBucket { delta, deadline })
        };
        self.buckets = buckets.into_iter().map(bucket).collect();
        Ok(())
    }

    fn name(&self) -> &'static str {
        "DelayCoalescer"
    }
}

/// One row of an `EMIT STREAM` rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRow {
    /// The data row (the query's output columns).
    pub row: Row,
    /// True if this entry retracts a previous row.
    pub undo: bool,
    /// Processing time at which the change materialized.
    pub ptime: Ts,
    /// Revision sequence number within the row's event-time grouping.
    pub ver: u64,
}

/// `EMIT STREAM` rows as columns: what one [`StreamRenderer::render_batch`]
/// released, in release order, with no row built. Row `i` is an entry of
/// one of the rendered logs' segments — its data values are that
/// segment's [`Column`]s at one index, or a row an operator built
/// ([`StreamBatch::get`]) — plus its `undo`, `ptime` and `ver`. An
/// entry with `|diff| > 1` is that many rows, with consecutive `ver`s.
pub struct StreamBatch<'a> {
    segments: Vec<&'a Segment>,
    /// Per row, its segment (an index into `segments`) and entry.
    rows: Vec<(u32, u32)>,
    vers: Vec<u64>,
}

/// One row of a [`StreamBatch`].
pub struct BatchRow<'a> {
    /// Where its data values are.
    pub cells: Cells<'a>,
    /// Whether it retracts a previous row.
    pub undo: bool,
    /// Its processing time.
    pub ptime: Ts,
    /// Its revision number within its event-time grouping.
    pub ver: u64,
}

/// Where one [`StreamBatch`] row's data values are.
pub enum Cells<'a> {
    /// At one index of each column.
    Columns(&'a [Column], usize),
    /// In a row an operator built.
    Row(&'a Row),
}

impl<'a> StreamBatch<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn entry(&self, i: usize) -> (&'a Segment, usize) {
        let (segment, entry) = self.rows[i];
        (self.segments[segment as usize], entry as usize)
    }

    /// Row `i`: where its data values are, and its metadata.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> BatchRow<'a> {
        let (segment, entry) = self.entry(i);
        let cells = match segment.rows().get(entry) {
            Some(row) => Cells::Row(row),
            None => Cells::Columns(segment.columns(), segment.offset() + entry),
        };
        BatchRow {
            cells,
            undo: segment.diffs()[entry] < 0,
            ptime: segment.ptimes()[entry],
            ver: self.vers[i],
        }
    }

    /// Row `i`, built.
    pub fn stream_row(&self, i: usize) -> StreamRow {
        let (segment, entry) = self.entry(i);
        StreamRow {
            row: segment.row(entry),
            undo: segment.diffs()[entry] < 0,
            ptime: segment.ptimes()[entry],
            ver: self.vers[i],
        }
    }

    /// Every row, built, in order.
    pub fn stream_rows(&self) -> impl Iterator<Item = StreamRow> + '_ {
        (0..self.len()).map(|i| self.stream_row(i))
    }
}

/// Render a stamped changelog as an `EMIT STREAM` relation (Extension 4):
/// each change becomes a row with `undo`, `ptime`, and `ver` columns, where
/// `ver` counts revisions per event-time grouping, identified by
/// `grouping_cols` (typically [`crate::compile::version_columns`]).
pub fn render_stream<E: Borrow<TimedChange>>(
    changelog: impl IntoIterator<Item = E>,
    grouping_cols: &[usize],
) -> Result<Vec<StreamRow>> {
    let mut renderer = StreamRenderer::new(grouping_cols.to_vec());
    let entries = changelog.into_iter();
    let mut out = Vec::with_capacity(entries.size_hint().0);
    for entry in entries {
        renderer.render_into(entry.borrow(), &mut out)?;
    }
    Ok(out)
}

/// Incremental form of [`render_stream`]: renders changelog entries as they
/// materialize, keeping per-grouping `ver` counters across calls so a
/// long-running consumer (e.g. a pipeline sink) numbers revisions exactly
/// as a one-shot rendering of the full changelog would. The counters are
/// hashed — one probe per row, no allocation once a grouping has been seen
/// — and only [`StreamRenderer::versions`] puts them in order.
pub struct StreamRenderer {
    grouping_cols: Vec<usize>,
    /// Groupings of one TIMESTAMP value — a projection's event time, a
    /// window's end — by its millis: nearly every query's.
    by_ts: HashMap<i64, u64, MulRotate>,
    /// Every other grouping (NULL, several columns, none), by its values.
    by_row: HashMap<Row, u64, MulRotate>,
    /// The current entry's grouping values when there are several: what
    /// `by_row` is probed with, in a buffer reused across entries.
    key: Vec<Value>,
}

impl StreamRenderer {
    /// Number versions per event-time grouping identified by
    /// `grouping_cols` (typically [`crate::compile::version_columns`]).
    pub fn new(grouping_cols: Vec<usize>) -> StreamRenderer {
        let seed = MulRotate::random();
        StreamRenderer {
            key: Vec::with_capacity(grouping_cols.len()),
            grouping_cols,
            by_ts: HashMap::with_hasher(seed),
            by_row: HashMap::with_hasher(seed),
        }
    }

    /// Live counters: one per grouping seen so far.
    pub fn counters(&self) -> usize {
        self.by_ts.len() + self.by_row.len()
    }

    /// Snapshot the per-grouping version counters, in key order, for
    /// inclusion in a pipeline checkpoint: a restarted renderer seeded
    /// with [`StreamRenderer::set_versions`] numbers post-restore
    /// revisions exactly as the uninterrupted rendering would.
    pub fn versions(&self) -> Vec<(Row, u64)> {
        let mut by_ts: Vec<(i64, u64)> = self.by_ts.iter().map(|(&t, &n)| (t, n)).collect();
        by_ts.sort_unstable();
        let by_ts = by_ts
            .into_iter()
            .map(|(t, n)| (Row::from_values([Value::Ts(Ts(t))]), n));
        let by_row = self.by_row.iter().map(|(key, &n)| (key.clone(), n));
        let mut versions: Vec<(Row, u64)> = by_ts.chain(by_row).collect();
        // The one-TIMESTAMP run is sorted; the stable sort places the rest.
        versions.sort_by(|(a, _), (b, _)| a.cmp(b));
        versions
    }

    /// Restore counters captured by [`StreamRenderer::versions`],
    /// replacing any current state.
    pub fn set_versions(&mut self, versions: Vec<(Row, u64)>) {
        self.by_ts.clear();
        self.by_row.clear();
        for (key, next) in versions {
            match key.values() {
                [Value::Ts(ts)] => self.by_ts.insert(ts.millis(), next),
                _ => self.by_row.insert(key, next),
            };
        }
    }

    /// Render one changelog entry, appending its unit revisions to `out`.
    /// A counter or a revision count no rendering can hold (a crafted
    /// checkpoint's) is an error, not an overflow.
    pub fn render_into(&mut self, entry: &TimedChange, out: &mut Vec<StreamRow>) -> Result<()> {
        let change = &entry.change;
        // A change with |diff| > 1 renders as that many unit revisions.
        let revisions = reserve(out, change.diff)?;
        let first = self.first_version(revisions, |col| change.row.value(col).cloned())?;
        out.extend((first..first + revisions).map(|ver| StreamRow {
            row: change.row.clone(),
            undo: change.diff < 0,
            ptime: entry.ptime,
            ver,
        }));
        Ok(())
    }

    /// Render every entry of `parts` — each in ptime order, as a pipeline
    /// worker's released output is — in `(ptime, part, position)` order,
    /// numbering `ver` from the grouping columns' lanes, and return the
    /// rows as columns. The parts are sealed first. Errors as
    /// [`StreamRenderer::render_into`] does.
    pub fn render_batch<'a>(&mut self, parts: &'a mut [Changelog]) -> Result<StreamBatch<'a>> {
        for part in parts.iter_mut() {
            part.seal();
        }
        let parts: &'a [Changelog] = parts;
        let segments: Vec<&'a Segment> = parts.iter().flat_map(|p| p.segments()).collect();
        if u32::try_from(segments.len()).is_err() {
            return Err(Error::exec(
                "cannot render more than u32::MAX segments at once",
            ));
        }
        let order = merge_order(parts);
        let mut batch = StreamBatch {
            segments,
            rows: Vec::new(),
            vers: Vec::with_capacity(order.len()),
        };
        // Each segment's `ver` key: the one-TIMESTAMP grouping read
        // straight off a lane without NULLs, or `None` to go by value.
        let ts_lanes: Vec<Option<&[Ts]>> = batch
            .segments
            .iter()
            .map(|lanes| match self.grouping_cols[..] {
                [col] => match lanes.columns().get(col).map(Column::data) {
                    Some(ColumnData::Ts { vals, nulls: None }) => Some(&vals[lanes.offset()..]),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        // The rows are the entries, unless one has `|diff| != 1`: from the
        // first such on they are built apart, room made before `ver` moves.
        let mut expanded: Option<Vec<(u32, u32)>> = None;
        for (i, &(id, entry)) in order.iter().enumerate() {
            let (lanes, entry) = (batch.segments[id as usize], entry as usize);
            let diff = lanes.diffs()[entry];
            let revisions = diff.unsigned_abs();
            if revisions != 1 || expanded.is_some() {
                let rows = expanded.get_or_insert_with(|| order[..i].to_vec());
                reserve(rows, diff)?;
                reserve(&mut batch.vers, diff)?;
            }
            let first = match ts_lanes[id as usize] {
                Some(vals) => advance(
                    self.by_ts.entry(vals[entry].millis()).or_insert(0),
                    revisions,
                )?,
                None => self.entry_version(lanes, entry, revisions)?,
            };
            match &mut expanded {
                None => batch.vers.push(first),
                Some(rows) => {
                    rows.extend(std::iter::repeat_n((id, entry as u32), revisions as usize));
                    batch.vers.extend(first..first + revisions);
                }
            }
        }
        batch.rows = expanded.unwrap_or(order);
        Ok(batch)
    }

    /// [`StreamRenderer::first_version`] of entry `entry` of `lanes`.
    fn entry_version(&mut self, lanes: &Segment, entry: usize, revisions: u64) -> Result<u64> {
        let (columns, at) = (lanes.columns(), lanes.offset() + entry);
        let row = lanes.rows().get(entry);
        self.first_version(revisions, |col| match row {
            Some(row) => row.value(col).cloned(),
            None => {
                let column = columns.get(col).ok_or_else(|| {
                    Error::exec(format!(
                        "column index {col} out of range for row of arity {}",
                        columns.len()
                    ))
                })?;
                Ok(column.value(at))
            }
        })
    }

    /// Move the counter of the grouping whose column `col` holds
    /// `value(col)` past `revisions` versions, returning the first.
    fn first_version(
        &mut self,
        revisions: u64,
        value: impl Fn(usize) -> Result<Value>,
    ) -> Result<u64> {
        match self.grouping_cols[..] {
            [col] => match value(col)? {
                Value::Ts(ts) => advance(self.by_ts.entry(ts.millis()).or_insert(0), revisions),
                one => advance_row(&mut self.by_row, std::slice::from_ref(&one), revisions),
            },
            _ => {
                self.key.clear();
                for &col in &self.grouping_cols {
                    self.key.push(value(col)?);
                }
                advance_row(&mut self.by_row, &self.key, revisions)
            }
        }
    }
}

/// The release order of `parts`' entries, each part in ptime order: by
/// ptime, then part, then position, as `(segment, entry)` with segments
/// numbered across the parts in order.
fn merge_order(parts: &[Changelog]) -> Vec<(u32, u32)> {
    let mut order = Vec::with_capacity(parts.iter().map(Changelog::len).sum());
    // Per part: its next segment's number, that segment's remaining
    // ptimes, and the segments after it.
    let mut heads = Vec::with_capacity(parts.len());
    let mut first = 0u32;
    for part in parts {
        if let Some((head, rest)) = part.segments().split_first() {
            heads.push((first, head.ptimes(), 0u32, rest));
        }
        first += part.segments().len() as u32;
    }
    while !heads.is_empty() {
        let mut next = 0;
        for p in 1..heads.len() {
            if heads[p].1[0] < heads[next].1[0] {
                next = p;
            }
        }
        let (id, ptimes, entry, rest) = &mut heads[next];
        order.push((*id, *entry));
        *entry += 1;
        *ptimes = &ptimes[1..];
        if ptimes.is_empty() {
            match rest.split_first() {
                Some((head, later)) => {
                    (*id, *ptimes, *entry, *rest) = (*id + 1, head.ptimes(), 0, later)
                }
                None => {
                    heads.remove(next);
                }
            }
        }
    }
    order
}

/// Make room in `out` for the unit revisions of a change of `diff`, and
/// return how many there are: an error when no rendering can hold them.
fn reserve<T>(out: &mut Vec<T>, diff: i64) -> Result<u64> {
    let revisions = diff.unsigned_abs();
    let rows = usize::try_from(revisions).unwrap_or(usize::MAX);
    out.try_reserve(rows)
        .map_err(|_| Error::exec(format!("cannot render a change of diff {diff}")))?;
    Ok(revisions)
}

/// Move a grouping's counter past `revisions` versions, returning the
/// first of them. A counter never passes `i64::MAX`, so every sink can
/// write a `ver` as a BIGINT.
fn advance(next: &mut u64, revisions: u64) -> Result<u64> {
    let first = *next;
    *next = first
        .checked_add(revisions)
        .filter(|&next| next <= i64::MAX as u64)
        .ok_or_else(|| Error::exec(format!("EMIT STREAM version {first} overflows")))?;
    Ok(first)
}

/// [`advance`] the counter of the grouping `key`, building its key row only
/// when the grouping is seen for the first time.
fn advance_row(map: &mut HashMap<Row, u64, MulRotate>, key: &[Value], n: u64) -> Result<u64> {
    if let Some(next) = map.get_mut(key) {
        return advance(next, n);
    }
    let mut next = 0;
    let first = advance(&mut next, n)?;
    map.insert(Row::from_values(key.iter().cloned()), next);
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_tvr::Changelog;
    use onesql_types::{row, Field, Schema};

    fn wm(t: Ts) -> Element {
        Element::watermark(t)
    }

    #[test]
    fn gate_holds_until_watermark() {
        // Rows: (wend, item); wend is the event-time column 0.
        let mut g = WatermarkGate::new(vec![0]);
        let mut out = Vec::new();
        g.process(
            0,
            Element::insert(row!(Ts::hm(8, 10), "A")),
            Ts(0),
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty(), "speculative row must be held");

        // Watermark below wend: nothing released.
        g.process(0, wm(Ts::hm(8, 8)), Ts(0), &mut out).unwrap();
        assert_eq!(out, vec![wm(Ts::hm(8, 8))]);
        out.clear();

        // Watermark past wend: row released before the watermark element.
        g.process(0, wm(Ts::hm(8, 12)), Ts(0), &mut out).unwrap();
        assert_eq!(
            out,
            vec![Element::insert(row!(Ts::hm(8, 10), "A")), wm(Ts::hm(8, 12)),]
        );
        assert_eq!(g.state_metrics().keys, 0);
    }

    #[test]
    fn gate_cancels_intermediate_revisions() {
        let mut g = WatermarkGate::new(vec![0]);
        let mut out = Vec::new();
        // A inserted then retracted (superseded by C) before completeness.
        for e in [
            Element::insert(row!(Ts::hm(8, 10), "A")),
            Element::retract(row!(Ts::hm(8, 10), "A")),
            Element::insert(row!(Ts::hm(8, 10), "C")),
        ] {
            g.process(0, e, Ts(0), &mut out).unwrap();
        }
        assert!(out.is_empty());
        g.process(0, wm(Ts::hm(8, 10)), Ts(0), &mut out).unwrap();
        // Only the final C materializes: A's revisions cancelled.
        assert_eq!(
            out,
            vec![Element::insert(row!(Ts::hm(8, 10), "C")), wm(Ts::hm(8, 10)),]
        );
    }

    #[test]
    fn gate_passes_post_watermark_changes_through() {
        let mut g = WatermarkGate::new(vec![0]);
        let mut out = Vec::new();
        g.process(0, wm(Ts::hm(9, 0)), Ts(0), &mut out).unwrap();
        out.clear();
        g.process(
            0,
            Element::insert(row!(Ts::hm(8, 10), "late")),
            Ts(0),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1, "allowed-lateness revisions flow through");
    }

    #[test]
    fn gate_without_event_time_waits_for_end_of_stream() {
        let mut g = WatermarkGate::new(vec![]);
        let mut out = Vec::new();
        g.process(0, Element::insert(row!(1i64)), Ts(0), &mut out)
            .unwrap();
        g.process(0, wm(Ts::hm(23, 0)), Ts(0), &mut out).unwrap();
        assert_eq!(out, vec![wm(Ts::hm(23, 0))]);
        out.clear();
        g.process(0, Element::Watermark(Watermark::MAX), Ts(0), &mut out)
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn delay_coalesces_to_net_change() {
        // Listing 14 shape: key = wend (col 0).
        let mut d = DelayCoalescer::new(Duration::from_minutes(6), vec![0], false);
        let mut out = Vec::new();
        // 8:08: A arrives; timer armed for 8:14.
        d.process(
            0,
            Element::insert(row!(Ts::hm(8, 10), "A")),
            Ts::hm(8, 8),
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(d.earliest_deadline(), Some(Ts::hm(8, 14)));
        // 8:13: A superseded by C.
        d.process(
            0,
            Element::retract(row!(Ts::hm(8, 10), "A")),
            Ts::hm(8, 13),
            &mut out,
        )
        .unwrap();
        d.process(
            0,
            Element::insert(row!(Ts::hm(8, 10), "C")),
            Ts::hm(8, 13),
            &mut out,
        )
        .unwrap();
        // 8:14: timer fires; only the net C emerges.
        d.on_processing_time(Ts::hm(8, 14), &mut out).unwrap();
        assert_eq!(out, vec![Element::insert(row!(Ts::hm(8, 10), "C"))]);
        out.clear();
        // Next change re-arms: C -> D at 8:15, fires 8:21 with undo first.
        d.process(
            0,
            Element::retract(row!(Ts::hm(8, 10), "C")),
            Ts::hm(8, 15),
            &mut out,
        )
        .unwrap();
        d.process(
            0,
            Element::insert(row!(Ts::hm(8, 10), "D")),
            Ts::hm(8, 15),
            &mut out,
        )
        .unwrap();
        assert_eq!(d.earliest_deadline(), Some(Ts::hm(8, 21)));
        d.on_processing_time(Ts::hm(8, 21), &mut out).unwrap();
        assert_eq!(
            out,
            vec![
                Element::retract(row!(Ts::hm(8, 10), "C")),
                Element::insert(row!(Ts::hm(8, 10), "D")),
            ]
        );
        assert_eq!(d.state_metrics().keys, 0);
    }

    #[test]
    fn delay_buckets_are_independent() {
        let mut d = DelayCoalescer::new(Duration::from_minutes(6), vec![0], false);
        let mut out = Vec::new();
        d.process(
            0,
            Element::insert(row!(Ts::hm(8, 10), "A")),
            Ts::hm(8, 8),
            &mut out,
        )
        .unwrap();
        d.process(
            0,
            Element::insert(row!(Ts::hm(8, 20), "B")),
            Ts::hm(8, 12),
            &mut out,
        )
        .unwrap();
        // 8:14: only the first bucket fires.
        d.on_processing_time(Ts::hm(8, 14), &mut out).unwrap();
        assert_eq!(out, vec![Element::insert(row!(Ts::hm(8, 10), "A"))]);
        out.clear();
        d.on_processing_time(Ts::hm(8, 18), &mut out).unwrap();
        assert_eq!(out, vec![Element::insert(row!(Ts::hm(8, 20), "B"))]);
    }

    #[test]
    fn combined_fires_on_watermark_too() {
        let mut d = DelayCoalescer::new(Duration::from_minutes(60), vec![0], true);
        let mut out = Vec::new();
        d.process(
            0,
            Element::insert(row!(Ts::hm(8, 10), "A")),
            Ts::hm(8, 8),
            &mut out,
        )
        .unwrap();
        // Watermark closes the 8:10 grouping long before the delay.
        d.process(0, wm(Ts::hm(8, 12)), Ts::hm(8, 16), &mut out)
            .unwrap();
        assert_eq!(
            out,
            vec![Element::insert(row!(Ts::hm(8, 10), "A")), wm(Ts::hm(8, 12)),]
        );
    }

    #[test]
    fn render_stream_versions_per_grouping() {
        let schema = Schema::new(vec![
            Field::event_time("wend"),
            Field::new("item", onesql_types::DataType::String),
        ]);
        let ver_cols = schema.event_time_columns();
        let mut log = Changelog::new();
        let w1 = Ts::hm(8, 10);
        let w2 = Ts::hm(8, 20);
        for (ptime, change) in [
            (Ts::hm(8, 8), Change::insert(row!(w1, "A"))),
            (Ts::hm(8, 12), Change::insert(row!(w2, "B"))),
            (Ts::hm(8, 13), Change::retract(row!(w1, "A"))),
            (Ts::hm(8, 13), Change::insert(row!(w1, "C"))),
        ] {
            log.push(ptime, &change).unwrap();
        }
        let rows = render_stream(&log, &ver_cols).unwrap();
        assert_eq!(rows.len(), 4);
        // Window 1 revisions: ver 0, 1, 2; window 2: ver 0.
        assert_eq!((rows[0].ver, rows[0].undo), (0, false));
        assert_eq!((rows[1].ver, rows[1].undo), (0, false)); // w2
        assert_eq!((rows[2].ver, rows[2].undo), (1, true));
        assert_eq!((rows[3].ver, rows[3].undo), (2, false));
        assert_eq!(rows[2].ptime, Ts::hm(8, 13));
    }

    #[test]
    fn render_stream_multi_diff_expands() {
        let mut log = Changelog::new();
        log.push(Ts(1), &Change::with_diff(row!(7i64), 2)).unwrap();
        let rows = render_stream(&log, &[]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].ver, rows[1].ver), (0, 1));
    }
}
