//! Changelogs: the stream encoding of a TVR over processing time.
//!
//! A [`Changelog`] is kept as columns: a run of [`Segment`]s, each one
//! typed [`Column`] per row column beside a ptime lane and a diff lane. A
//! four-column row of fixed-width values costs 48 bytes there, where a
//! [`TimedChange`] and its row's shared slice cost ~160. Entries pushed
//! one at a time fill an open segment (built with [`ColumnBuilder`]) of up
//! to [`SEGMENT_ROWS`], which seals when it is full or when an entry of
//! another arity arrives; a columnar batch of [`SMALL_RUN`] entries or
//! more becomes a sealed segment of its own, its columns taken over as
//! they are when it is dense. Segments move between logs whole
//! ([`Changelog::append`], [`Changelog::split_before`]), so a log handed
//! from one owner to the next is not copied value by value; only a log
//! kept long ([`Changelog::absorb`]) copies short segments, to keep its
//! own whole. The rows a row-at-a-time operator built are kept as they
//! are ([`Changelog::push_row`]) until such a log copies them too. Other
//! rows exist only on read: [`Changelog::iter`] and
//! [`Changelog::snapshot_at`] build them, and `snapshot_at` finds its cut
//! by binary search on the ptime lanes, which is why every append refuses
//! an entry older than the last.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use onesql_types::{Column, ColumnBuilder, Row, Ts, Value};

use crate::bag::Bag;
use crate::batch::ChangeBatch;
use crate::change::Change;

/// A change stamped with the processing time at which it was applied — the
/// `ptime` metadata the paper exposes on materialized changelogs (§3.3.1,
/// Extension 4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedChange {
    /// Processing time at which the change took effect.
    pub ptime: Ts,
    /// The change itself.
    pub change: Change,
}

/// Entries an open segment takes: a full segment seals and the next
/// starts.
pub const SEGMENT_ROWS: usize = 4096;

/// The shortest run that is kept as a segment of its own. A shorter
/// batch, or a shorter segment appended from another log, is copied into
/// the open segment instead, so a log fed many small rounds does not
/// fragment into segments that cost more than their entries.
pub const SMALL_RUN: usize = SEGMENT_ROWS / 16;

/// An append was handed an entry stamped before the log's last one.
/// Processing time is monotone, so a changelog only grows at its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder {
    /// The ptime of the log's last entry.
    pub last: Ts,
    /// The refused entry's ptime.
    pub ptime: Ts,
}

impl fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "changelog append at ptime {} precedes the last entry's {}: \
             appends must be in processing-time order",
            self.ptime, self.last
        )
    }
}

impl std::error::Error for OutOfOrder {}

impl From<OutOfOrder> for onesql_types::Error {
    fn from(e: OutOfOrder) -> Self {
        onesql_types::Error::exec(e.to_string())
    }
}

/// A segment's lanes: growing columns, sealed columns, or rows.
#[derive(Clone)]
enum Lanes {
    Open {
        columns: Vec<ColumnBuilder>,
        ptimes: Vec<Ts>,
        diffs: Vec<i64>,
    },
    /// Entries `from..to` of storage that other segments split from the
    /// same one may share.
    Sealed {
        columns: Vec<Column>,
        ptimes: Arc<[Ts]>,
        diffs: Arc<[i64]>,
        from: usize,
        to: usize,
        /// This view's share of the storage's heap bytes: the shares of
        /// the views of one storage add up to its bytes.
        bytes: usize,
    },
    /// Rows an operator built one at a time, kept as they came.
    Rows {
        rows: Vec<Row>,
        ptimes: Vec<Ts>,
        diffs: Vec<i64>,
    },
}

/// Consecutive entries of one arity. Columns, as a rule: while open, one
/// [`ColumnBuilder`] per row column; once sealed, one [`Column`] each,
/// beside shared ptime and diff lanes. A sealed segment may be a view of
/// part of its storage, so splitting one copies nothing. The rows an
/// operator built one at a time stay rows ([`Changelog::push_row`]) until
/// [`Changelog::absorb`] or [`Changelog::columnize`] copies them.
#[derive(Clone)]
pub struct Segment {
    lanes: Lanes,
    arity: usize,
}

impl Segment {
    fn new(arity: usize) -> Segment {
        let columns = (0..arity)
            .map(|_| ColumnBuilder::with_capacity(0))
            .collect();
        Segment {
            lanes: Lanes::Open {
                columns,
                ptimes: Vec::new(),
                diffs: Vec::new(),
            },
            arity,
        }
    }

    fn of_rows(arity: usize) -> Segment {
        Segment {
            lanes: Lanes::Rows {
                rows: Vec::new(),
                ptimes: Vec::new(),
                diffs: Vec::new(),
            },
            arity,
        }
    }

    /// A sealed segment over the whole of `columns` and its lanes.
    fn sealed(columns: Vec<Column>, arity: usize, ptimes: Arc<[Ts]>, diffs: Arc<[i64]>) -> Segment {
        let lanes: usize = columns.iter().map(Column::heap_bytes).sum();
        let bytes =
            lanes + std::mem::size_of_val::<[Ts]>(&ptimes) + std::mem::size_of_val::<[i64]>(&diffs);
        let to = ptimes.len();
        Segment {
            lanes: Lanes::Sealed {
                columns,
                ptimes,
                diffs,
                from: 0,
                to,
                bytes,
            },
            arity,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ptimes().len()
    }

    /// Whether the segment holds no entry.
    pub fn is_empty(&self) -> bool {
        self.ptimes().is_empty()
    }

    /// Number of row columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Each entry's processing time, in order.
    pub fn ptimes(&self) -> &[Ts] {
        match &self.lanes {
            Lanes::Open { ptimes, .. } | Lanes::Rows { ptimes, .. } => ptimes,
            Lanes::Sealed {
                ptimes, from, to, ..
            } => &ptimes[*from..*to],
        }
    }

    /// Each entry's diff.
    pub fn diffs(&self) -> &[i64] {
        match &self.lanes {
            Lanes::Open { diffs, .. } | Lanes::Rows { diffs, .. } => diffs,
            Lanes::Sealed {
                diffs, from, to, ..
            } => &diffs[*from..*to],
        }
    }

    /// The row columns of a sealed segment, one per column: entry `i` is
    /// at index [`Segment::offset`]` + i` of each. Empty for an open
    /// segment and for one of [`Segment::rows`].
    pub fn columns(&self) -> &[Column] {
        match &self.lanes {
            Lanes::Sealed { columns, .. } => columns,
            Lanes::Open { .. } | Lanes::Rows { .. } => &[],
        }
    }

    /// Where entry 0 sits in [`Segment::columns`].
    pub fn offset(&self) -> usize {
        match &self.lanes {
            Lanes::Sealed { from, .. } => *from,
            Lanes::Open { .. } | Lanes::Rows { .. } => 0,
        }
    }

    /// The entries' rows, when the segment keeps them as rows; else empty.
    pub fn rows(&self) -> &[Row] {
        match &self.lanes {
            Lanes::Rows { rows, .. } => rows,
            Lanes::Open { .. } | Lanes::Sealed { .. } => &[],
        }
    }

    /// Column `col`'s value of entry `i`.
    ///
    /// # Panics
    /// Panics if either is out of range.
    pub fn value(&self, i: usize, col: usize) -> Value {
        match &self.lanes {
            Lanes::Open { columns, .. } => columns[col].value(i),
            Lanes::Sealed { columns, from, .. } => columns[col].value(from + i),
            Lanes::Rows { rows, .. } => rows[i].values()[col].clone(),
        }
    }

    /// Entry `i`'s row: built, or shared when the segment keeps rows.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> Row {
        match &self.lanes {
            Lanes::Rows { rows, .. } => rows[i].clone(),
            _ => Row::from_values((0..self.arity).map(|col| self.value(i, col))),
        }
    }

    fn is_open(&self) -> bool {
        matches!(self.lanes, Lanes::Open { .. })
    }

    fn takes(&self, arity: usize) -> bool {
        self.is_open() && self.arity == arity && self.len() < SEGMENT_ROWS
    }

    /// Append an entry to an open segment.
    fn push(&mut self, values: impl IntoIterator<Item = Value>, ptime: Ts, diff: i64) {
        if let Lanes::Open {
            columns,
            ptimes,
            diffs,
        } = &mut self.lanes
        {
            for (lane, value) in columns.iter_mut().zip(values) {
                lane.push(value);
            }
            ptimes.push(ptime);
            diffs.push(diff);
        }
    }

    /// Seal an open segment (a sealed one or one of rows stays as it is).
    fn seal(&mut self) {
        let Lanes::Open {
            columns,
            ptimes,
            diffs,
        } = &mut self.lanes
        else {
            return;
        };
        let mut sealed: Vec<Column> = columns.drain(..).map(ColumnBuilder::finish).collect();
        for column in &mut sealed {
            column.shrink_to_fit();
        }
        let ptimes = Arc::from(std::mem::take(ptimes));
        let diffs = Arc::from(std::mem::take(diffs));
        *self = Segment::sealed(sealed, self.arity, ptimes, diffs);
    }

    /// Heap bytes: an open segment's lanes at their capacity, a sealed
    /// one's share of its storage, a row segment's rows and lanes.
    fn bytes(&self) -> usize {
        fn lanes(ptimes: &Vec<Ts>, diffs: &Vec<i64>) -> usize {
            ptimes.capacity() * std::mem::size_of::<Ts>()
                + diffs.capacity() * std::mem::size_of::<i64>()
        }
        match &self.lanes {
            Lanes::Open {
                columns,
                ptimes,
                diffs,
            } => {
                columns.iter().map(ColumnBuilder::heap_bytes).sum::<usize>() + lanes(ptimes, diffs)
            }
            Lanes::Sealed { bytes, .. } => *bytes,
            Lanes::Rows {
                rows,
                ptimes,
                diffs,
            } => {
                let row = |row: &Row| {
                    let strings = row.values().iter().map(|v| match v {
                        Value::Str(s) => s.len(),
                        _ => 0,
                    });
                    2 * std::mem::size_of::<usize>()
                        + std::mem::size_of_val(row.values())
                        + strings.sum::<usize>()
                };
                rows.capacity() * std::mem::size_of::<Row>()
                    + rows.iter().map(row).sum::<usize>()
                    + lanes(ptimes, diffs)
            }
        }
    }

    /// Split a sealed segment or one of rows at `cut`: it keeps its first
    /// `cut` entries and the rest come back as a segment of their own. A
    /// sealed segment's two halves are views of the same storage, its
    /// bytes shared out by entries; a row segment moves the later rows.
    /// No value is copied.
    fn split_off(&mut self, cut: usize) -> Segment {
        self.seal();
        let lanes = match &mut self.lanes {
            Lanes::Sealed {
                columns,
                ptimes,
                diffs,
                from,
                to,
                bytes,
            } => {
                let share = *bytes * cut / (*to - *from).max(1);
                let tail = Lanes::Sealed {
                    columns: columns.clone(),
                    ptimes: ptimes.clone(),
                    diffs: diffs.clone(),
                    from: *from + cut,
                    to: *to,
                    bytes: *bytes - share,
                };
                (*to, *bytes) = (*from + cut, share);
                tail
            }
            Lanes::Rows {
                rows,
                ptimes,
                diffs,
            } => Lanes::Rows {
                rows: rows.split_off(cut),
                ptimes: ptimes.split_off(cut),
                diffs: diffs.split_off(cut),
            },
            Lanes::Open { .. } => unreachable!("the segment was sealed above"),
        };
        Segment {
            lanes,
            arity: self.arity,
        }
    }

    /// The first `n` entries, each row built (or shared) as it is read.
    fn entries(&self, n: usize) -> impl Iterator<Item = TimedChange> + '_ {
        let lanes = self.ptimes().iter().zip(self.diffs()).take(n);
        lanes.enumerate().map(|(i, (&ptime, &diff))| TimedChange {
            ptime,
            change: Change::with_diff(self.row(i), diff),
        })
    }
}

/// A full changelog history of a TVR: changes ordered by processing time,
/// stored as typed columns (see the [module docs](self)).
///
/// `Changelog` is itself a TVR (the paper's key observation): it can be
/// viewed as a table of `(row, diff, ptime)` rows, and `snapshot_at` renders
/// the *table* encoding at any processing time. Two logs are equal when
/// their entries are, however they fall into segments.
#[derive(Clone, Default)]
pub struct Changelog {
    segments: Vec<Segment>,
    len: usize,
    /// Heap bytes of every segment but the last, which may still grow.
    sealed_bytes: usize,
}

impl Changelog {
    /// An empty changelog.
    pub fn new() -> Changelog {
        Changelog::default()
    }

    /// Append `change` at `ptime`, copying its values into the columns.
    /// `ptime` must not precede the last entry's (processing time is
    /// monotone); an older one is refused and the log is left as it was.
    pub fn push(&mut self, ptime: Ts, change: &Change) -> Result<(), OutOfOrder> {
        self.check_order(ptime)?;
        let values = change.row.values();
        self.open_segment(values.len())
            .push(values.iter().cloned(), ptime, change.diff);
        self.len += 1;
        Ok(())
    }

    /// Append `change` at `ptime`, keeping its row: an operator built it,
    /// so it goes on as it is, into a segment of rows, unless the log is
    /// filling columns of its arity already. Refuses an older `ptime` as
    /// [`Changelog::push`] does.
    pub fn push_row(&mut self, ptime: Ts, change: Change) -> Result<(), OutOfOrder> {
        let arity = change.row.arity();
        let takes_row = |s: &Segment| {
            matches!(s.lanes, Lanes::Rows { .. }) && s.arity == arity && s.len() < SEGMENT_ROWS
        };
        if self.segments.last().is_some_and(|s| s.takes(arity)) {
            return self.push(ptime, &change);
        }
        self.check_order(ptime)?;
        if !self.segments.last().is_some_and(takes_row) {
            self.start(Segment::of_rows(arity));
        }
        if let Some(Lanes::Rows {
            rows,
            ptimes,
            diffs,
        }) = self.segments.last_mut().map(|s| &mut s.lanes)
        {
            rows.push(change.row);
            ptimes.push(ptime);
            diffs.push(change.diff);
        }
        self.len += 1;
        Ok(())
    }

    /// Append every row of `batch` whose diff is not zero, at its own
    /// ptime. A run of [`SMALL_RUN`] entries or more becomes a sealed
    /// segment: a dense batch's columns and lanes are taken over as they
    /// are, a filtered one's gathered; a shorter run is copied into the
    /// open segment. An older first ptime is refused and the log left as
    /// it was.
    pub fn push_batch(&mut self, batch: &ChangeBatch) -> Result<(), OutOfOrder> {
        let n = batch.len();
        let live = (0..n).filter(|&i| batch.diff(i) != 0);
        let Some(first) = live.clone().next() else {
            return Ok(());
        };
        self.check_order(batch.ptime(first))?;
        let count = live.clone().count();
        if count < SMALL_RUN {
            for i in live {
                let values = (0..batch.arity()).map(|col| batch.value(i, col));
                self.open_segment(batch.arity())
                    .push(values, batch.ptime(i), batch.diff(i));
                self.len += 1;
            }
            return Ok(());
        }
        let segment = match batch.dense_lanes().filter(|_| count == n) {
            Some((ptimes, diffs)) => {
                Segment::sealed(batch.columns().to_vec(), batch.arity(), ptimes, diffs)
            }
            None => {
                let rows: Vec<u32> = live.clone().map(|i| batch.phys(i) as u32).collect();
                Segment::sealed(
                    batch.columns().iter().map(|c| c.gather(&rows)).collect(),
                    batch.arity(),
                    live.clone().map(|i| batch.ptime(i)).collect(),
                    live.map(|i| batch.diff(i)).collect(),
                )
            }
        };
        self.push_sealed(segment);
        Ok(())
    }

    fn check_order_of(&self, other: &Changelog) -> Result<(), OutOfOrder> {
        match other.segments.first().and_then(|s| s.ptimes().first()) {
            Some(&first) => self.check_order(first),
            None => Ok(()),
        }
    }

    fn check_order(&self, ptime: Ts) -> Result<(), OutOfOrder> {
        match self.last_ptime().filter(|&last| ptime < last) {
            Some(last) => Err(OutOfOrder { last, ptime }),
            None => Ok(()),
        }
    }

    /// Add a non-empty segment that is not open at the end.
    fn push_sealed(&mut self, segment: Segment) {
        self.len += segment.len();
        self.start(segment);
    }

    /// Seal the last segment and put `segment` after it.
    fn start(&mut self, segment: Segment) {
        self.seal();
        self.sealed_bytes += self.segments.last().map_or(0, Segment::bytes);
        self.segments.push(segment);
    }

    /// The open segment, if it takes another entry of `arity`; else seal
    /// it and open the next. A segment's lanes grow as it fills, so a
    /// short log or one cut by arity changes holds little spare room.
    fn open_segment(&mut self, arity: usize) -> &mut Segment {
        if !self.segments.last().is_some_and(|s| s.takes(arity)) {
            self.start(Segment::new(arity));
        }
        let open = self.segments.len() - 1;
        &mut self.segments[open]
    }

    /// Seal the open segment, if there is one: from then on every segment
    /// of the log has its [`Segment::columns`], but for segments of rows.
    pub fn seal(&mut self) {
        if let Some(last) = self.segments.last_mut() {
            last.seal();
        }
    }

    /// Copy every segment of rows into columns, so that every segment of
    /// the sealed log has its [`Segment::columns`].
    pub fn columnize(&mut self) {
        if self.segments.iter().all(|s| s.rows().is_empty()) {
            return self.seal();
        }
        let mut columns = Changelog::new();
        // In order, so a row segment's entries move into columns as a
        // short segment's do.
        for segment in std::mem::take(&mut self.segments) {
            columns.absorb_segment(segment);
        }
        columns.seal();
        *self = columns;
    }

    /// Move every entry of `other` to the end of this log, its segments
    /// as they are. A first entry older than this log's last is refused
    /// and both logs are left as they were.
    pub fn append(&mut self, other: Changelog) -> Result<(), OutOfOrder> {
        self.check_order_of(&other)?;
        for mut segment in other.segments {
            segment.seal();
            self.push_sealed(segment);
        }
        Ok(())
    }

    /// [`Changelog::append`] for a log kept long, as columns: a segment
    /// shorter than [`SMALL_RUN`], and one of rows, is copied into the
    /// open segment instead of moved, so many short appends fill whole
    /// segments and no row is kept.
    pub fn absorb(&mut self, other: Changelog) -> Result<(), OutOfOrder> {
        self.check_order_of(&other)?;
        for segment in other.segments {
            self.absorb_segment(segment);
        }
        Ok(())
    }

    fn absorb_segment(&mut self, mut segment: Segment) {
        if segment.len() >= SMALL_RUN && segment.rows().is_empty() {
            segment.seal();
            return self.push_sealed(segment);
        }
        for i in 0..segment.len() {
            let values = (0..segment.arity).map(|col| segment.value(i, col));
            let (ptime, diff) = (segment.ptimes()[i], segment.diffs()[i]);
            self.open_segment(segment.arity).push(values, ptime, diff);
            self.len += 1;
        }
    }

    /// Take the entries stamped before `below` out of the log: they come
    /// back as a log of their own, in order, and this one keeps the rest.
    /// Both are sealed. Whole segments move, and a segment the cut falls
    /// inside is split into two views of its storage, so nothing is
    /// copied.
    pub fn split_before(&mut self, below: Ts) -> Changelog {
        self.seal();
        let whole = self
            .segments
            .partition_point(|s| s.ptimes().last() < Some(&below));
        let mut head = Changelog::new();
        for segment in self.segments.drain(..whole) {
            head.push_sealed(segment);
        }
        if let Some(first) = self.segments.first_mut() {
            let cut = first.ptimes().partition_point(|&ptime| ptime < below);
            if cut > 0 {
                let tail = first.split_off(cut);
                head.push_sealed(std::mem::replace(first, tail));
            }
        }
        self.len -= head.len;
        let earlier = self.segments.len().saturating_sub(1);
        self.sealed_bytes = self.segments[..earlier].iter().map(Segment::bytes).sum();
        head
    }

    /// How many entries are stamped before `ptime`.
    pub fn count_before(&self, ptime: Ts) -> usize {
        let whole = self
            .segments
            .partition_point(|s| s.ptimes().last() < Some(&ptime));
        let before: usize = self.segments[..whole].iter().map(Segment::len).sum();
        let cut =
            (self.segments.get(whole)).map_or(0, |s| s.ptimes().partition_point(|&p| p < ptime));
        before + cut
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    fn last_ptime(&self) -> Option<Ts> {
        self.segments
            .last()
            .and_then(|s| s.ptimes().last().copied())
    }

    /// Every entry in processing-time order, each row built as it is
    /// read.
    pub fn iter(&self) -> impl Iterator<Item = TimedChange> + '_ {
        self.segments
            .iter()
            .flat_map(|segment| segment.entries(segment.len()))
    }

    /// All entries in processing-time order, as rows.
    pub fn entries(&self) -> Vec<TimedChange> {
        self.iter().collect()
    }

    /// Number of changes recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no changes were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the log holds: every lane at its allocated capacity,
    /// null masks and string payloads included.
    pub fn heap_bytes(&self) -> usize {
        self.sealed_bytes
            + self.segments.last().map_or(0, Segment::bytes)
            + self.segments.capacity() * std::mem::size_of::<Segment>()
    }

    /// The table encoding of the TVR at processing time `at` (inclusive):
    /// replay every change with `ptime <= at`. This is the "point-in-time
    /// view" used by the paper's `8:13 > SELECT ...;` listings.
    pub fn snapshot_at(&self, at: Ts) -> Bag {
        let mut bag = Bag::new();
        self.replay_into(at, &mut bag);
        bag
    }

    /// Apply every change with `ptime <= at` to `bag`: [`Changelog::snapshot_at`]
    /// over a bag that may already hold other changes (a bag is linear, so
    /// several logs replayed into one give the snapshot of their union).
    pub fn replay_into(&self, at: Ts, bag: &mut Bag) {
        // Segments wholly at or before `at`, then the cut inside the next.
        let whole = self
            .segments
            .partition_point(|s| s.ptimes().last().is_some_and(|&last| last <= at));
        for segment in &self.segments[..whole] {
            bag.apply(segment.entries(segment.len()).map(|e| e.change));
        }
        if let Some(segment) = self.segments.get(whole) {
            let cut = segment.ptimes().partition_point(|&ptime| ptime <= at);
            bag.apply(segment.entries(cut).map(|e| e.change));
        }
    }

    /// The final table encoding (replay everything).
    pub fn snapshot(&self) -> Bag {
        self.snapshot_at(Ts::MAX)
    }

    /// Build a changelog from a sequence of `(ptime, snapshot)` observations
    /// by differencing consecutive snapshots — the table→stream direction of
    /// the duality. The sequence must be in processing-time order; an
    /// observation before its predecessor is refused.
    pub fn from_snapshots(
        snapshots: impl IntoIterator<Item = (Ts, Bag)>,
    ) -> Result<Changelog, OutOfOrder> {
        let mut log = Changelog::new();
        let mut current = Bag::new();
        let mut previous: Option<Ts> = None;
        for (ptime, snap) in snapshots {
            if let Some(last) = previous.filter(|&last| ptime < last) {
                return Err(OutOfOrder { last, ptime });
            }
            previous = Some(ptime);
            for change in current.diff(&snap) {
                log.push(ptime, &change)?;
            }
            current = snap;
        }
        Ok(log)
    }
}
impl IntoIterator for Changelog {
    type Item = TimedChange;
    type IntoIter = std::vec::IntoIter<TimedChange>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries().into_iter()
    }
}

impl IntoIterator for &Changelog {
    type Item = TimedChange;
    type IntoIter = std::vec::IntoIter<TimedChange>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries().into_iter()
    }
}

impl PartialEq for Changelog {
    fn eq(&self, other: &Changelog) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Changelog {}

impl fmt::Debug for Changelog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for Changelog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in self.iter() {
            writeln!(f, "{} {}", e.ptime, e.change)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ChangeBatch;
    use onesql_types::row;

    fn sample_log() -> Changelog {
        let mut log = Changelog::new();
        log.push(Ts::hm(8, 8), &Change::insert(row!("A", 2i64)))
            .unwrap();
        log.push(Ts::hm(8, 12), &Change::insert(row!("B", 3i64)))
            .unwrap();
        log.push(Ts::hm(8, 13), &Change::retract(row!("A", 2i64)))
            .unwrap();
        log.push(Ts::hm(8, 13), &Change::insert(row!("C", 4i64)))
            .unwrap();
        log
    }

    #[test]
    fn snapshot_at_replays_prefix() {
        let log = sample_log();
        assert!(log.snapshot_at(Ts::hm(8, 0)).is_empty());
        let at_8_12 = log.snapshot_at(Ts::hm(8, 12));
        assert_eq!(at_8_12.len(), 2);
        assert!(at_8_12.contains(&row!("A", 2i64)));
        let at_8_13 = log.snapshot_at(Ts::hm(8, 13));
        assert!(!at_8_13.contains(&row!("A", 2i64)));
        assert!(at_8_13.contains(&row!("C", 4i64)));
        assert_eq!(log.snapshot(), at_8_13);
    }

    #[test]
    fn duality_snapshots_to_changelog_and_back() {
        // Build snapshots, derive changelog, replay, compare.
        let s1 = Bag::from_rows(vec![row!(1i64)]);
        let s2 = Bag::from_rows(vec![row!(1i64), row!(2i64)]);
        let s3 = Bag::from_rows(vec![row!(2i64)]);
        let log = Changelog::from_snapshots(vec![
            (Ts::hm(8, 0), s1.clone()),
            (Ts::hm(8, 1), s2.clone()),
            (Ts::hm(8, 2), s3.clone()),
        ])
        .unwrap();
        assert_eq!(log.snapshot_at(Ts::hm(8, 0)), s1);
        assert_eq!(log.snapshot_at(Ts::hm(8, 1)), s2);
        assert_eq!(log.snapshot_at(Ts::hm(8, 2)), s3);
        // Between observation times the snapshot holds steady.
        assert_eq!(log.snapshot_at(Ts(Ts::hm(8, 1).millis() + 1)), s2);
        // Observations out of order are refused, not reordered.
        let refused = Changelog::from_snapshots(vec![(Ts::hm(8, 1), s2), (Ts::hm(8, 0), s1)]);
        assert_eq!(
            refused.unwrap_err(),
            OutOfOrder {
                last: Ts::hm(8, 1),
                ptime: Ts::hm(8, 0)
            }
        );
    }

    #[test]
    fn an_older_ptime_is_refused_and_the_log_kept() {
        let mut log = sample_log();
        let before = log.clone();
        let err = log
            .push(Ts::hm(8, 9), &Change::insert(row!("D", 5i64)))
            .unwrap_err();
        assert_eq!(err.last, Ts::hm(8, 13));
        assert_eq!(log, before);
        let err: onesql_types::Error = err.into();
        assert!(err.to_string().contains("processing-time order"), "{err}");
    }

    /// `n` changes from `from` on, two INT columns, one ptime per four.
    fn run(from: i64, n: i64) -> Vec<(Ts, Change)> {
        let change = |i: i64| Change::with_diff(row!(i, i * 3), if i % 5 == 0 { -1 } else { 1 });
        (from..from + n).map(|i| (Ts(i / 4), change(i))).collect()
    }

    fn log_of(changes: &[(Ts, Change)]) -> Changelog {
        let mut log = Changelog::new();
        for (ptime, change) in changes {
            log.push(*ptime, change).unwrap();
        }
        log
    }

    #[test]
    fn a_batch_goes_in_as_its_columns_or_by_value_when_short() {
        let long = run(0, 600);
        let batch = ChangeBatch::from_changes(&long).unwrap();
        let mut log = Changelog::new();
        log.push_batch(&batch).unwrap();
        // Dense: the batch's columns are the segment's.
        assert_eq!(log.segments().len(), 1);
        let taken = &log.segments()[0].columns()[0];
        assert!(std::ptr::eq(taken.data(), batch.columns()[0].data()));
        // Filtered, with a zero diff: the live rows gathered.
        let mut rest = run(600, 800);
        rest[1].1.diff = 0;
        let kept: Vec<u32> = (0..800).filter(|i| i % 3 != 0).collect();
        let filtered = ChangeBatch::from_changes(&rest)
            .unwrap()
            .select_logical(&kept);
        log.push_batch(&filtered).unwrap();
        // Short: copied into the open segment.
        let short = run(1_400, 10);
        log.push_batch(&ChangeBatch::from_changes(&short).unwrap())
            .unwrap();
        assert_eq!(log.segments().len(), 3);
        let live = kept
            .iter()
            .map(|&i| rest[i as usize].clone())
            .filter(|(_, c)| c.diff != 0);
        let expected: Vec<_> = long.iter().cloned().chain(live).chain(short).collect();
        assert_eq!(log, log_of(&expected));
        // An older batch is refused whole.
        let stale = ChangeBatch::from_changes(&run(0, 300)).unwrap();
        assert!(log.push_batch(&stale).is_err());
        assert_eq!(log.len(), expected.len());
    }

    #[test]
    fn a_split_shares_the_storage_and_its_bytes() {
        let changes = run(0, 1_000);
        let mut log = Changelog::new();
        log.push_batch(&ChangeBatch::from_changes(&changes).unwrap())
            .unwrap();
        let share = |log: &Changelog| log.segments()[0].bytes();
        // Two INT columns, a ptime and a diff.
        let bytes = share(&log);
        assert_eq!(bytes, 1_000 * 32);
        assert_eq!(log.count_before(Ts(100)), 400);
        let head = log.split_before(Ts(100));
        assert_eq!((head.len(), log.len()), (400, 600));
        assert_eq!(head, log_of(&changes[..400]));
        assert_eq!(log, log_of(&changes[400..]));
        assert_eq!(share(&head) + share(&log), bytes);
        // A cut below everything takes nothing; above, everything.
        assert!(log.split_before(Ts(0)).is_empty());
        let all = log.split_before(Ts::MAX);
        assert_eq!((all.len(), log.len()), (600, 0));
    }

    #[test]
    fn rows_stay_rows_until_absorbed_or_columnized() {
        let changes = run(0, 300);
        let mut rows = Changelog::new();
        for (ptime, change) in &changes {
            rows.push_row(*ptime, change.clone()).unwrap();
        }
        assert_eq!(rows.segments().len(), 1);
        assert_eq!(rows.segments()[0].rows().len(), 300);
        assert_eq!(rows, log_of(&changes));
        // A split moves the later rows.
        let head = rows.split_before(Ts(10));
        assert_eq!((head.len(), rows.segments()[0].rows().len()), (40, 260));
        let mut columns = rows.clone();
        columns.columnize();
        assert!(columns.segments().iter().all(|s| s.rows().is_empty()));
        assert_eq!(columns, rows);
        // Absorbed, short runs and rows fill the open segment.
        let mut kept = Changelog::new();
        kept.absorb(head).unwrap();
        kept.absorb(rows).unwrap();
        assert_eq!(kept.segments().len(), 1);
        assert_eq!(kept, log_of(&changes));
        assert!(kept.segments()[0].rows().is_empty());
    }

    #[test]
    fn segments_seal_when_full_or_on_an_arity_change() {
        let mut log = Changelog::new();
        for i in 0..SEGMENT_ROWS as i64 + 3 {
            log.push(Ts(i / 64), &Change::insert(row!(i, i * 2)))
                .unwrap();
        }
        log.push(Ts(1 << 20), &Change::with_diff(row!(7i64), -300))
            .unwrap();
        assert_eq!(log.segments.len(), 3);
        assert_eq!(log.len(), SEGMENT_ROWS + 4);
        let full = &log.segments[0];
        assert!(!full.is_open() && full.len() == SEGMENT_ROWS);
        // Two INT lanes, a ptime and a diff: 32 bytes an entry.
        assert_eq!(full.bytes(), SEGMENT_ROWS * 32);
        let measured: usize = log.segments.iter().map(Segment::bytes).sum();
        let slots = log.segments.capacity() * std::mem::size_of::<Segment>();
        assert_eq!(log.heap_bytes(), measured + slots);
        assert_eq!(log.segments[1].len(), 3);
        let last = log.entries().pop().unwrap();
        assert_eq!(last.change, Change::with_diff(row!(7i64), -300));
        assert_eq!(log.snapshot_at(Ts(0)).len(), 64);
        assert_eq!(log.snapshot_at(Ts(63)).len(), SEGMENT_ROWS);
        assert_eq!(log.snapshot_at(Ts(64)).len(), SEGMENT_ROWS + 3);
    }
}
