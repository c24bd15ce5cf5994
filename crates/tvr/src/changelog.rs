//! Changelogs: the stream encoding of a TVR over processing time.
//!
//! A [`Changelog`] is kept as columns: dense segments of
//! [`SEGMENT_ROWS`] entries, each one typed [`Column`] per row column
//! (built with [`ColumnBuilder`]) beside a ptime lane and a diff lane. A
//! four-column row of fixed-width values costs 48 bytes there, where a
//! [`TimedChange`] and its row's shared slice cost ~160. A segment seals
//! when it is full or when an entry of another arity arrives, which
//! starts the next one. Rows exist only on read: [`Changelog::iter`] and
//! [`Changelog::snapshot_at`] build them, and `snapshot_at` finds its cut
//! by binary search on the ptime lanes, which is why [`Changelog::push`]
//! refuses an entry older than the last.

use std::fmt;

use serde::{Deserialize, Serialize};

use onesql_types::{Column, ColumnBuilder, Row, Ts, Value};

use crate::bag::Bag;
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

/// Entries per segment: a full segment seals and the next starts.
pub const SEGMENT_ROWS: usize = 4096;

/// [`Changelog::push`] was handed an entry stamped before the log's last
/// one. Processing time is monotone, so a changelog only grows at its end.
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

/// One row column of a segment: still growing, or sealed.
#[derive(Clone)]
enum Lane {
    Open(ColumnBuilder),
    Sealed(Column),
}

impl Lane {
    fn value(&self, i: usize) -> Value {
        match self {
            Lane::Open(builder) => builder.value(i),
            Lane::Sealed(column) => column.value(i),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Lane::Open(builder) => builder.heap_bytes(),
            Lane::Sealed(column) => column.heap_bytes(),
        }
    }
}

/// Consecutive entries of one arity, as columns.
#[derive(Clone)]
struct Segment {
    lanes: Vec<Lane>,
    ptimes: Vec<Ts>,
    diffs: Vec<i64>,
    /// Heap bytes once sealed (a sealed segment never changes).
    sealed_bytes: Option<usize>,
}

impl Segment {
    fn new(arity: usize) -> Segment {
        Segment {
            lanes: (0..arity)
                .map(|_| Lane::Open(ColumnBuilder::with_capacity(0)))
                .collect(),
            ptimes: Vec::new(),
            diffs: Vec::new(),
            sealed_bytes: None,
        }
    }

    fn len(&self) -> usize {
        self.ptimes.len()
    }

    fn takes(&self, arity: usize) -> bool {
        self.sealed_bytes.is_none() && self.lanes.len() == arity && self.len() < SEGMENT_ROWS
    }

    /// Seal the segment; returns its heap bytes (0 if it already was).
    fn seal(&mut self) -> usize {
        if self.sealed_bytes.is_some() {
            return 0;
        }
        for lane in &mut self.lanes {
            if let Lane::Open(builder) = lane {
                let builder = std::mem::replace(builder, ColumnBuilder::with_capacity(0));
                *lane = Lane::Sealed(builder.finish());
            }
        }
        self.ptimes.shrink_to_fit();
        self.diffs.shrink_to_fit();
        let bytes = self.measure();
        self.sealed_bytes = Some(bytes);
        bytes
    }

    fn measure(&self) -> usize {
        let lanes: usize = self.lanes.iter().map(Lane::heap_bytes).sum();
        lanes
            + self.ptimes.capacity() * std::mem::size_of::<Ts>()
            + self.diffs.capacity() * std::mem::size_of::<i64>()
    }

    /// The first `n` entries, each row built as it is read.
    fn entries(&self, n: usize) -> impl Iterator<Item = TimedChange> + '_ {
        let lanes = self.ptimes.iter().zip(&self.diffs).take(n);
        lanes.enumerate().map(|(i, (&ptime, &diff))| {
            let row = Row::from_values(self.lanes.iter().map(|lane| lane.value(i)));
            TimedChange {
                ptime,
                change: Change::with_diff(row, diff),
            }
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
    /// Heap bytes of the sealed segments (all but the last).
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
        if let Some(last) = self.last_ptime().filter(|&last| ptime < last) {
            return Err(OutOfOrder { last, ptime });
        }
        let values = change.row.values();
        let segment = self.open_segment(values.len());
        for (lane, value) in segment.lanes.iter_mut().zip(values) {
            if let Lane::Open(builder) = lane {
                builder.push(value.clone());
            }
        }
        segment.ptimes.push(ptime);
        segment.diffs.push(change.diff);
        self.len += 1;
        Ok(())
    }

    /// The open segment, if it takes another entry of `arity`; else seal
    /// it and open the next. A segment's lanes grow as it fills, so a
    /// short log or one cut by arity changes holds little spare room.
    fn open_segment(&mut self, arity: usize) -> &mut Segment {
        if !self.segments.last().is_some_and(|s| s.takes(arity)) {
            if let Some(full) = self.segments.last_mut() {
                self.sealed_bytes += full.seal();
            }
            self.segments.push(Segment::new(arity));
        }
        let open = self.segments.len() - 1;
        &mut self.segments[open]
    }

    fn last_ptime(&self) -> Option<Ts> {
        self.segments.last().and_then(|s| s.ptimes.last().copied())
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
        let open = self.segments.last().filter(|s| s.sealed_bytes.is_none());
        self.sealed_bytes
            + open.map_or(0, Segment::measure)
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
            .partition_point(|s| s.ptimes.last().is_some_and(|&last| last <= at));
        for segment in &self.segments[..whole] {
            bag.apply(segment.entries(segment.len()).map(|e| e.change));
        }
        if let Some(segment) = self.segments.get(whole) {
            let cut = segment.ptimes.partition_point(|&ptime| ptime <= at);
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
        assert!(full.sealed_bytes.is_some() && full.len() == SEGMENT_ROWS);
        // Two INT lanes, a ptime and a diff: 32 bytes an entry.
        assert_eq!(full.sealed_bytes, Some(SEGMENT_ROWS * 32));
        let measured: usize = log.segments.iter().map(Segment::measure).sum();
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
