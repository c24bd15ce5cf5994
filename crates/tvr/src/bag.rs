//! Multiset snapshots: the table encoding of a TVR at one instant.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use onesql_types::Row;

use crate::change::Change;

/// A multiset of rows — the paper's "instantaneous relation" (CQL parlance,
/// §3.1): the value of a TVR at a single point in time.
///
/// Stored as an ordered map from row to (positive) multiplicity, so
/// iteration order is deterministic and snapshots have a canonical form.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Bag {
    rows: BTreeMap<Row, i64>,
}

impl Bag {
    /// The empty relation.
    pub fn new() -> Bag {
        Bag::default()
    }

    /// Build from rows, each with multiplicity one per occurrence.
    pub fn from_rows(rows: impl IntoIterator<Item = Row>) -> Bag {
        let mut bag = Bag::new();
        for r in rows {
            bag.insert(r);
        }
        bag
    }

    /// Total number of rows (counting multiplicity).
    pub fn len(&self) -> usize {
        self.rows.values().map(|&d| d.max(0) as usize).sum()
    }

    /// Number of *distinct* visible rows (positive multiplicity).
    pub fn distinct_len(&self) -> usize {
        self.rows.values().filter(|&&d| d > 0).count()
    }

    /// True if the relation has no visible rows.
    pub fn is_empty(&self) -> bool {
        self.rows.values().all(|&d| d <= 0)
    }

    /// Multiplicity of `row` (zero if absent).
    pub fn multiplicity(&self, row: &Row) -> i64 {
        self.rows.get(row).copied().unwrap_or(0)
    }

    /// True if `row` occurs at least once.
    pub fn contains(&self, row: &Row) -> bool {
        self.multiplicity(row) > 0
    }

    /// Insert one occurrence of `row`.
    pub fn insert(&mut self, row: Row) {
        self.update(Change::insert(row));
    }

    /// Remove one occurrence of `row` (see [`Bag::update`] for the
    /// semantics of removing an absent row).
    pub fn remove(&mut self, row: &Row) {
        self.update(Change::retract(row.clone()));
    }

    /// Apply a signed change. Multiplicities are a true ℤ-algebra (as in
    /// differential dataflow): a retraction of an absent row leaves a
    /// negative entry that a later insert cancels, so change application is
    /// linear — `apply(a ++ b) == apply(a); apply(b)` and consolidation
    /// never changes the result. Exact zeros are dropped (canonical form);
    /// negative entries are invisible to [`Bag::rows`]/[`Bag::contains`].
    pub fn update(&mut self, change: Change) {
        let Change { row, diff } = change;
        let entry = self.rows.entry(row.clone()).or_insert(0);
        *entry += diff;
        if *entry == 0 {
            self.rows.remove(&row);
        }
    }

    /// Apply a batch of changes.
    pub fn apply(&mut self, changes: impl IntoIterator<Item = Change>) {
        for c in changes {
            self.update(c);
        }
    }

    /// Iterate distinct rows with multiplicities, in row order.
    pub fn iter(&self) -> impl Iterator<Item = (&Row, i64)> {
        self.rows.iter().map(|(r, &d)| (r, d))
    }

    /// Iterate rows expanded by multiplicity, in row order.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.rows
            .iter()
            .flat_map(|(r, &d)| std::iter::repeat_n(r, d.max(0) as usize))
    }

    /// Collect all rows (expanded by multiplicity) into a vector.
    pub fn to_rows(&self) -> Vec<Row> {
        self.rows().cloned().collect()
    }

    /// The changes that transform `self` into `target`: the *difference
    /// encoding* direction of the stream/table duality.
    pub fn diff(&self, target: &Bag) -> Vec<Change> {
        let mut changes = Vec::new();
        // Rows present in self: emit the delta to target's multiplicity.
        for (row, &old) in &self.rows {
            let new = target.multiplicity(row);
            if new != old {
                changes.push(Change::with_diff(row.clone(), new - old));
            }
        }
        // Rows only in target.
        for (row, &new) in &target.rows {
            if !self.rows.contains_key(row) {
                changes.push(Change::with_diff(row.clone(), new));
            }
        }
        changes
    }
}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (row, d)) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{row}x{d}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Row> for Bag {
    fn from_iter<I: IntoIterator<Item = Row>>(iter: I) -> Self {
        Bag::from_rows(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    #[test]
    fn insert_remove_multiplicity() {
        let mut b = Bag::new();
        assert!(b.is_empty());
        b.insert(row!(1i64));
        b.insert(row!(1i64));
        b.insert(row!(2i64));
        assert_eq!(b.len(), 3);
        assert_eq!(b.distinct_len(), 2);
        assert_eq!(b.multiplicity(&row!(1i64)), 2);
        b.remove(&row!(1i64));
        assert_eq!(b.multiplicity(&row!(1i64)), 1);
        b.remove(&row!(1i64));
        assert!(!b.contains(&row!(1i64)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn remove_absent_row_is_algebraic() {
        // Retraction of an absent row leaves an invisible negative entry
        // that a later insert cancels (ℤ-linear change application).
        let mut b = Bag::new();
        b.remove(&row!(9i64));
        assert!(b.is_empty());
        assert_eq!(b.multiplicity(&row!(9i64)), -1);
        assert!(!b.contains(&row!(9i64)));
        b.insert(row!(9i64));
        assert_eq!(b.multiplicity(&row!(9i64)), 0);
        assert!(b.is_empty());
        b.insert(row!(9i64));
        assert_eq!(b.multiplicity(&row!(9i64)), 1);
    }

    #[test]
    fn rows_expand_multiplicity_in_order() {
        let b = Bag::from_rows(vec![row!(2i64), row!(1i64), row!(2i64)]);
        let rows = b.to_rows();
        assert_eq!(rows, vec![row!(1i64), row!(2i64), row!(2i64)]);
    }

    #[test]
    fn diff_is_exact_transformer() {
        let a = Bag::from_rows(vec![row!(1i64), row!(2i64), row!(2i64)]);
        let b = Bag::from_rows(vec![row!(2i64), row!(3i64)]);
        let changes = a.diff(&b);
        let mut a2 = a.clone();
        a2.apply(changes);
        assert_eq!(a2, b);
        // Diff to self is empty.
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    fn display() {
        let b = Bag::from_rows(vec![row!(1i64), row!(1i64)]);
        assert_eq!(b.to_string(), "{(1)x2}");
    }
}
