//! Changelogs: the stream encoding of a TVR over processing time.

use std::fmt;

use serde::{Deserialize, Serialize};

use onesql_types::Ts;

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

/// A full changelog history of a TVR: changes ordered by processing time.
///
/// `Changelog` is itself a TVR (the paper's key observation): it can be
/// viewed as a table of `(row, diff, ptime)` rows, and `snapshot_at` renders
/// the *table* encoding at any processing time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Changelog {
    entries: Vec<TimedChange>,
}

impl Changelog {
    /// An empty changelog.
    pub fn new() -> Changelog {
        Changelog::default()
    }

    /// Append a change at `ptime`. `ptime` must be non-decreasing across
    /// appends (processing time is monotonic); out-of-order appends panic in
    /// debug builds and are accepted (as-if reordered) in release builds.
    pub fn push(&mut self, ptime: Ts, change: Change) {
        debug_assert!(
            self.entries.last().is_none_or(|last| last.ptime <= ptime),
            "changelog appends must be in processing-time order"
        );
        self.entries.push(TimedChange { ptime, change });
    }

    /// Reserve room for at least `additional` more entries (the batch emit
    /// path knows how many rows it is about to append).
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// All entries in processing-time order.
    pub fn entries(&self) -> &[TimedChange] {
        &self.entries
    }

    /// Number of changes recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no changes were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The table encoding of the TVR at processing time `at` (inclusive):
    /// replay every change with `ptime <= at`. This is the "point-in-time
    /// view" used by the paper's `8:13 > SELECT ...;` listings.
    pub fn snapshot_at(&self, at: Ts) -> Bag {
        let mut bag = Bag::new();
        for e in &self.entries {
            if e.ptime > at {
                break;
            }
            bag.update(e.change.clone());
        }
        bag
    }

    /// The final table encoding (replay everything).
    pub fn snapshot(&self) -> Bag {
        self.snapshot_at(Ts::MAX)
    }

    /// Build a changelog from a sequence of `(ptime, snapshot)` observations
    /// by differencing consecutive snapshots — the table→stream direction of
    /// the duality. The sequence must be in processing-time order.
    pub fn from_snapshots(snapshots: impl IntoIterator<Item = (Ts, Bag)>) -> Changelog {
        let mut log = Changelog::new();
        let mut current = Bag::new();
        for (ptime, snap) in snapshots {
            for change in current.diff(&snap) {
                log.push(ptime, change);
            }
            current = snap;
        }
        log
    }
}

/// Consume the log entry by entry, in processing-time order — how a
/// consumer that takes a log over (the pipeline driver's merge) moves the
/// entries on instead of copying them.
impl IntoIterator for Changelog {
    type Item = TimedChange;
    type IntoIter = std::vec::IntoIter<TimedChange>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl fmt::Display for Changelog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
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
        log.push(Ts::hm(8, 8), Change::insert(row!("A", 2i64)));
        log.push(Ts::hm(8, 12), Change::insert(row!("B", 3i64)));
        log.push(Ts::hm(8, 13), Change::retract(row!("A", 2i64)));
        log.push(Ts::hm(8, 13), Change::insert(row!("C", 4i64)));
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
        ]);
        assert_eq!(log.snapshot_at(Ts::hm(8, 0)), s1);
        assert_eq!(log.snapshot_at(Ts::hm(8, 1)), s2);
        assert_eq!(log.snapshot_at(Ts::hm(8, 2)), s3);
        // Between observation times the snapshot holds steady.
        assert_eq!(log.snapshot_at(Ts(Ts::hm(8, 1).millis() + 1)), s2);
    }

    #[test]
    #[should_panic(expected = "processing-time order")]
    fn out_of_order_push_panics_in_debug() {
        let mut log = Changelog::new();
        log.push(Ts::hm(8, 10), Change::insert(row!(1i64)));
        log.push(Ts::hm(8, 9), Change::insert(row!(2i64)));
    }
}
