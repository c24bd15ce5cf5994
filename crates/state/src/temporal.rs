//! Temporal tables: system-time versioned relations.
//!
//! §6.1 of the paper points to temporal tables — queryable "snapshots of the
//! table from arbitrary points of time in the past via `AS OF SYSTEM TIME`"
//! — as existing SQL machinery that already embodies the TVR idea. This
//! module implements them: every mutation is stamped with system
//! (processing) time, full snapshots are reconstructable at any time, and
//! per-key version lookup supports the paper's future-work item of
//! *correlated* temporal joins (enrich each order with the exchange rate at
//! the time the order was placed).

use std::collections::BTreeMap;

use onesql_tvr::{Bag, Change, Changelog};
use onesql_types::{Error, Result, Row, Ts};

/// A system-time versioned table with an optional unique key.
///
/// Internally a [`Changelog`] (mutations over system time) plus, when a key
/// is declared, a per-key version chain for O(log n) `AS OF` lookups.
#[derive(Debug, Clone, Default)]
pub struct TemporalTable {
    /// Full mutation history in system-time order.
    history: Changelog,
    /// Indices of unique-key columns, if declared.
    key_cols: Option<Vec<usize>>,
    /// Per-key version chain: `(valid_from, Some(row))` for an insert/update
    /// or `(valid_from, None)` for a delete. Sorted by `valid_from`.
    versions: BTreeMap<Row, Vec<(Ts, Option<Row>)>>,
    /// Last mutation time, to enforce monotonic system time.
    last_mutation: Option<Ts>,
}

impl TemporalTable {
    /// A keyless temporal table (append/retract multiset semantics).
    pub fn new() -> TemporalTable {
        TemporalTable::default()
    }

    /// A temporal table with a unique key over the given column indices;
    /// inserts on an existing key replace the prior version.
    pub fn with_key(key_cols: Vec<usize>) -> TemporalTable {
        TemporalTable {
            key_cols: Some(key_cols),
            ..TemporalTable::default()
        }
    }

    fn check_time(&mut self, at: Ts) -> Result<()> {
        if let Some(last) = self.last_mutation {
            if at < last {
                return Err(Error::exec(format!(
                    "temporal table mutation at {at} precedes last mutation at {last}; \
                     system time is monotonic"
                )));
            }
        }
        self.last_mutation = Some(at);
        Ok(())
    }

    /// Insert `row` at system time `at`. With a declared key this is an
    /// upsert: any existing version for the key is closed at `at`.
    pub fn insert(&mut self, at: Ts, row: Row) -> Result<()> {
        self.check_time(at)?;
        if let Some(key_cols) = &self.key_cols {
            let key = row.project(key_cols)?;
            let chain = self.versions.entry(key).or_default();
            if let Some((_, Some(prev))) = chain.last() {
                self.history.push(at, &Change::retract(prev.clone()))?;
            }
            chain.push((at, Some(row.clone())));
            self.history.push(at, &Change::insert(row))?;
        } else {
            self.history.push(at, &Change::insert(row))?;
        }
        Ok(())
    }

    /// Delete at system time `at`. With a declared key, `row` may be just
    /// the key values or a full row; without a key it must be the full row.
    pub fn delete(&mut self, at: Ts, row: Row) -> Result<()> {
        self.check_time(at)?;
        if let Some(key_cols) = &self.key_cols {
            let key = if row.arity() == key_cols.len() {
                row
            } else {
                row.project(key_cols)?
            };
            let chain = self
                .versions
                .get_mut(&key)
                .ok_or_else(|| Error::exec(format!("delete of unknown key {key}")))?;
            match chain.last() {
                Some((_, Some(prev))) => {
                    self.history.push(at, &Change::retract(prev.clone()))?;
                    chain.push((at, None));
                    Ok(())
                }
                _ => Err(Error::exec(format!("delete of already-deleted key {key}"))),
            }
        } else {
            self.history.push(at, &Change::retract(row))?;
            Ok(())
        }
    }

    /// The snapshot of the table `AS OF SYSTEM TIME at` (inclusive).
    pub fn as_of(&self, at: Ts) -> Bag {
        self.history.snapshot_at(at)
    }

    /// The current snapshot.
    pub fn current(&self) -> Bag {
        self.history.snapshot()
    }

    /// Look up the version of `key` valid at system time `at` — the
    /// correlated temporal join primitive. Requires a declared key.
    pub fn lookup_as_of(&self, key: &Row, at: Ts) -> Result<Option<Row>> {
        if self.key_cols.is_none() {
            return Err(Error::exec(
                "lookup_as_of requires a temporal table with a declared key",
            ));
        }
        let Some(chain) = self.versions.get(key) else {
            return Ok(None);
        };
        // Last version with valid_from <= at.
        let idx = chain.partition_point(|(from, _)| *from <= at);
        if idx == 0 {
            return Ok(None);
        }
        Ok(chain[idx - 1].1.clone())
    }

    /// The full mutation history as a changelog (itself a TVR).
    pub fn history(&self) -> &Changelog {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    /// Currency-rate table keyed by currency code: the paper's §8 example.
    fn rates() -> TemporalTable {
        let mut t = TemporalTable::with_key(vec![0]);
        t.insert(Ts::hm(9, 0), row!("EUR", 114i64)).unwrap();
        t.insert(Ts::hm(9, 0), row!("GBP", 127i64)).unwrap();
        t.insert(Ts::hm(10, 30), row!("EUR", 116i64)).unwrap();
        t.delete(Ts::hm(11, 0), row!("GBP")).unwrap();
        t
    }

    #[test]
    fn as_of_reconstructs_past_snapshots() {
        let t = rates();
        assert!(t.as_of(Ts::hm(8, 0)).is_empty());
        let at_10 = t.as_of(Ts::hm(10, 0));
        assert!(at_10.contains(&row!("EUR", 114i64)));
        assert!(at_10.contains(&row!("GBP", 127i64)));
        let at_12 = t.as_of(Ts::hm(12, 0));
        assert!(at_12.contains(&row!("EUR", 116i64)));
        assert!(!at_12.contains(&row!("EUR", 114i64)));
        assert!(!at_12.contains(&row!("GBP", 127i64)));
        assert_eq!(t.current(), at_12);
    }

    #[test]
    fn correlated_lookup_by_key() {
        let t = rates();
        // Order placed at 9:30 pays the 9:00 rate; at 10:45 the updated one.
        assert_eq!(
            t.lookup_as_of(&row!("EUR"), Ts::hm(9, 30)).unwrap(),
            Some(row!("EUR", 114i64))
        );
        assert_eq!(
            t.lookup_as_of(&row!("EUR"), Ts::hm(10, 45)).unwrap(),
            Some(row!("EUR", 116i64))
        );
        // Before first insert: no version.
        assert_eq!(t.lookup_as_of(&row!("EUR"), Ts::hm(8, 59)).unwrap(), None);
        // Deleted key: None after deletion, present before.
        assert_eq!(
            t.lookup_as_of(&row!("GBP"), Ts::hm(10, 59)).unwrap(),
            Some(row!("GBP", 127i64))
        );
        assert_eq!(t.lookup_as_of(&row!("GBP"), Ts::hm(11, 0)).unwrap(), None);
        // Unknown key.
        assert_eq!(t.lookup_as_of(&row!("JPY"), Ts::hm(12, 0)).unwrap(), None);
    }

    #[test]
    fn upsert_replaces_version() {
        let t = rates();
        let current = t.current();
        assert_eq!(current.len(), 1); // only EUR@116 remains
    }

    #[test]
    fn monotonic_system_time_enforced() {
        let mut t = rates();
        assert!(t.insert(Ts::hm(9, 30), row!("JPY", 1i64)).is_err());
    }

    #[test]
    fn delete_errors() {
        let mut t = TemporalTable::with_key(vec![0]);
        assert!(t.delete(Ts::hm(9, 0), row!("EUR")).is_err());
        t.insert(Ts::hm(9, 0), row!("EUR", 1i64)).unwrap();
        t.delete(Ts::hm(9, 1), row!("EUR")).unwrap();
        assert!(t.delete(Ts::hm(9, 2), row!("EUR")).is_err());
    }

    #[test]
    fn keyless_table_is_multiset() {
        let mut t = TemporalTable::new();
        t.insert(Ts::hm(9, 0), row!(1i64)).unwrap();
        t.insert(Ts::hm(9, 1), row!(1i64)).unwrap();
        assert_eq!(t.current().multiplicity(&row!(1i64)), 2);
        t.delete(Ts::hm(9, 2), row!(1i64)).unwrap();
        assert_eq!(t.current().multiplicity(&row!(1i64)), 1);
        assert!(t.lookup_as_of(&row!(1i64), Ts::hm(9, 3)).is_err());
    }

    #[test]
    fn history_is_a_changelog() {
        let t = rates();
        assert_eq!(t.history().snapshot(), t.current());
    }
}
