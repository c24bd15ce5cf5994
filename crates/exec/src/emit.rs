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

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

use onesql_state::{Checkpoint, Codec, StateMetrics};
use onesql_time::Watermark;
use onesql_tvr::{Change, Changelog, Element};
use onesql_types::{Duration, Result, Row, Ts, Value};

use crate::operator::Operator;

/// Names of the metadata columns appended by `EMIT STREAM`.
pub const STREAM_META_COLUMNS: [&str; 3] = ["undo", "ptime", "ver"];

/// The event-time grouping key of a row: the values of its event-time
/// columns. Rows with no event-time columns share a single global grouping.
fn grouping_key(row: &Row, event_time_cols: &[usize]) -> Result<Row> {
    let mut vals = Vec::with_capacity(event_time_cols.len());
    for &i in event_time_cols {
        vals.push(row.value(i)?.clone());
    }
    Ok(Row::new(vals))
}

/// The completion timestamp of a grouping key: the maximum of its event-time
/// values. Empty keys (no event-time columns) complete only at end of
/// stream.
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
                let key = grouping_key(&change.row, &self.event_time_cols)?;
                let ts = completion_ts(&key);
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
                while self
                    .pending
                    .first_key_value()
                    .is_some_and(|((ts, _), _)| watermark.closes(*ts))
                {
                    if let Some(((_, row), diff)) = self.pending.pop_first() {
                        if diff != 0 {
                            out.push(Element::Data(Change::with_diff(row, diff)));
                        }
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

/// Encoded snapshot shape for [`DelayCoalescer`] checkpoints.
type DelaySnapshot = (Ts, Vec<(Row, (Option<Ts>, Vec<(Row, i64)>))>);

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
                let key = grouping_key(&change.row, &self.event_time_cols)?;
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
        let buckets: DelaySnapshot = (
            self.watermark.ts(),
            self.buckets
                .iter()
                .map(|(k, b)| {
                    (
                        k.clone(),
                        (
                            b.deadline,
                            b.delta.iter().map(|(r, d)| (r.clone(), *d)).collect(),
                        ),
                    )
                })
                .collect(),
        );
        Ok(Some(Checkpoint(buckets.to_bytes())))
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let (wm, buckets): DelaySnapshot = Codec::from_bytes(&checkpoint.0)?;
        self.watermark = Watermark(wm);
        self.buckets = buckets
            .into_iter()
            .map(|(k, (deadline, delta))| {
                (
                    k,
                    DelayBucket {
                        deadline,
                        delta: delta.into_iter().collect(),
                    },
                )
            })
            .collect();
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

/// Render a stamped changelog as an `EMIT STREAM` relation (Extension 4):
/// each change becomes a row with `undo`, `ptime`, and `ver` columns, where
/// `ver` counts revisions per event-time grouping, identified by
/// `grouping_cols` (typically [`crate::compile::version_columns`]).
pub fn render_stream(changelog: &Changelog, grouping_cols: &[usize]) -> Result<Vec<StreamRow>> {
    let mut renderer = StreamRenderer::new(grouping_cols.to_vec());
    let mut out = Vec::with_capacity(changelog.len());
    for entry in changelog.entries() {
        renderer.render_into(entry, &mut out)?;
    }
    Ok(out)
}

/// A grouping's key in a [`StreamRenderer`]'s version map. It compares as
/// the slice of its grouping values, so the map iterates in the order rows
/// of those values sort in and can be probed with a borrowed slice. Nearly
/// every query numbers versions per *one* event-time column, and that one
/// value is kept inline: a lookup then compares values held in the tree's
/// own nodes instead of following a pointer per key, and building a key
/// allocates nothing.
enum GroupKey {
    One(Value),
    Row(Row),
}

impl Borrow<[Value]> for GroupKey {
    fn borrow(&self) -> &[Value] {
        match self {
            GroupKey::One(value) => std::slice::from_ref(value),
            GroupKey::Row(row) => row.values(),
        }
    }
}

impl Ord for GroupKey {
    fn cmp(&self, other: &GroupKey) -> Ordering {
        match (self, other) {
            (GroupKey::One(a), GroupKey::One(b)) => a.cmp(b),
            _ => Borrow::<[Value]>::borrow(self).cmp(other.borrow()),
        }
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &GroupKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &GroupKey) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for GroupKey {}

/// Incremental form of [`render_stream`]: renders changelog entries as they
/// materialize, keeping per-grouping `ver` counters across calls so a
/// long-running consumer (e.g. a pipeline sink) numbers revisions exactly
/// as a one-shot rendering of the full changelog would.
pub struct StreamRenderer {
    grouping_cols: Vec<usize>,
    versions: BTreeMap<GroupKey, u64>,
    /// The current entry's grouping values when there are several: what
    /// the map is probed with, in a buffer reused across entries.
    key: Vec<Value>,
}

impl StreamRenderer {
    /// Number versions per event-time grouping identified by
    /// `grouping_cols` (typically [`crate::compile::version_columns`]).
    pub fn new(grouping_cols: Vec<usize>) -> StreamRenderer {
        StreamRenderer {
            key: Vec::with_capacity(grouping_cols.len()),
            grouping_cols,
            versions: BTreeMap::new(),
        }
    }

    /// Snapshot the per-grouping version counters, in key order, for
    /// inclusion in a pipeline checkpoint: a restarted renderer seeded
    /// with [`StreamRenderer::set_versions`] numbers post-restore
    /// revisions exactly as the uninterrupted rendering would.
    pub fn versions(&self) -> Vec<(Row, u64)> {
        let entry = |(key, next): (&GroupKey, &u64)| match key {
            GroupKey::One(value) => (Row::from_values([value.clone()]), *next),
            GroupKey::Row(row) => (row.clone(), *next),
        };
        self.versions.iter().map(entry).collect()
    }

    /// Restore counters captured by [`StreamRenderer::versions`],
    /// replacing any current state.
    pub fn set_versions(&mut self, versions: Vec<(Row, u64)>) {
        let entry = |(key, next): (Row, u64)| match key.values() {
            [one] => (GroupKey::One(one.clone()), next),
            _ => (GroupKey::Row(key), next),
        };
        self.versions = versions.into_iter().map(entry).collect();
    }

    /// Render one changelog entry, appending its unit revisions to `out`.
    pub fn render_into(
        &mut self,
        entry: &onesql_tvr::TimedChange,
        out: &mut Vec<StreamRow>,
    ) -> Result<()> {
        let change = &entry.change;
        // A change with |diff| > 1 renders as that many unit revisions.
        let revisions = change.diff.unsigned_abs();
        let first = match self.grouping_cols[..] {
            // One grouping column, and a fresh value of it on most rows (a
            // projection's own event time): the key is a copy of the
            // value, so one descent finds or inserts it.
            [col] => {
                let key = GroupKey::One(change.row.value(col)?.clone());
                let next = self.versions.entry(key).or_insert(0);
                std::mem::replace(next, *next + revisions)
            }
            // A window's bounds (or no grouping at all), seen again on
            // most rows: probe with the values in a reused buffer, and
            // build a key row only for a grouping seen for the first time.
            _ => {
                self.key.clear();
                for &col in &self.grouping_cols {
                    self.key.push(change.row.value(col)?.clone());
                }
                match self.versions.get_mut(self.key.as_slice()) {
                    Some(next) => std::mem::replace(next, *next + revisions),
                    None => {
                        let key = Row::from_values(self.key.iter().cloned());
                        self.versions.insert(GroupKey::Row(key), revisions);
                        0
                    }
                }
            }
        };
        out.extend((first..first + revisions).map(|ver| StreamRow {
            row: change.row.clone(),
            undo: change.diff < 0,
            ptime: entry.ptime,
            ver,
        }));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        log.push(Ts::hm(8, 8), Change::insert(row!(w1, "A")));
        log.push(Ts::hm(8, 12), Change::insert(row!(w2, "B")));
        log.push(Ts::hm(8, 13), Change::retract(row!(w1, "A")));
        log.push(Ts::hm(8, 13), Change::insert(row!(w1, "C")));
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
        log.push(Ts(1), Change::with_diff(row!(7i64), 2));
        let rows = render_stream(&log, &[]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].ver, rows[1].ver), (0, 1));
    }
}
