//! Row representation.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::value::Value;

/// An immutable row of values.
///
/// Rows are reference-counted slices so that cloning a row — which happens
/// on every fan-out in the dataflow (joins, multi-consumer changelogs) — is
/// a pointer copy rather than a deep copy.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row {
            values: values.into(),
        }
    }

    /// Build a row by collecting values straight into the shared slice —
    /// one allocation, no intermediate `Vec`. This is the emit-boundary
    /// hot path: every output row of a columnar batch materializes here.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Row {
        Row {
            values: values.into_iter().collect(),
        }
    }

    /// The empty row (used by constant relations such as `SELECT 1`).
    pub fn empty() -> Row {
        Row {
            values: Arc::from([]),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Borrow the value at `idx`, or an execution error if out of range.
    pub fn value(&self, idx: usize) -> Result<&Value> {
        self.values.get(idx).ok_or_else(|| {
            Error::exec(format!(
                "column index {idx} out of range for row of arity {}",
                self.values.len()
            ))
        })
    }

    /// All values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Build a new row by selecting columns at the given indices.
    pub fn project(&self, indices: &[usize]) -> Result<Row> {
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            out.push(self.value(i)?.clone());
        }
        Ok(Row::new(out))
    }

    /// Concatenate two rows (used by joins and the window TVFs, which append
    /// `wstart`/`wend` columns to their input rows).
    pub fn concat(&self, other: &Row) -> Row {
        let mut out = Vec::with_capacity(self.arity() + other.arity());
        out.extend_from_slice(&self.values);
        out.extend_from_slice(&other.values);
        Row::new(out)
    }

    /// Append values to this row, producing a new row.
    pub fn with_appended(&self, extra: &[Value]) -> Row {
        let mut out = Vec::with_capacity(self.arity() + extra.len());
        out.extend_from_slice(&self.values);
        out.extend_from_slice(extra);
        Row::new(out)
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values.iter()).finish()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A row is its values: `Row`'s `Eq`, `Ord` and `Hash` are exactly the
/// slice's, so a map keyed by rows can be probed with a borrowed
/// `&[Value]` — no key row is built to look one up.
impl std::borrow::Borrow<[Value]> for Row {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Build a row from a list of things convertible to [`Value`], with one
/// allocation (the shared slice; no intermediate `Vec`).
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::from_values([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::Ts;

    #[test]
    fn construction_and_access() {
        let r = row!(1i64, "a", Ts::hm(8, 0));
        assert_eq!(r.arity(), 3);
        assert_eq!(r.value(0).unwrap(), &Value::Int(1));
        assert_eq!(r.value(1).unwrap(), &Value::str("a"));
        assert!(r.value(3).is_err());
    }

    #[test]
    fn cheap_clone_shares_storage() {
        let r = row!(1i64, 2i64);
        let s = r.clone();
        assert!(Arc::ptr_eq(&r.values, &s.values));
    }

    #[test]
    fn project_and_concat() {
        let r = row!(10i64, 20i64, 30i64);
        let p = r.project(&[2, 0]).unwrap();
        assert_eq!(p, row!(30i64, 10i64));
        assert!(r.project(&[5]).is_err());

        let joined = r.concat(&row!("x"));
        assert_eq!(joined.arity(), 4);
        assert_eq!(joined.value(3).unwrap(), &Value::str("x"));
    }

    #[test]
    fn with_appended() {
        let r = row!(1i64);
        let r2 = r.with_appended(&[Value::Int(2), Value::Int(3)]);
        assert_eq!(r2, row!(1i64, 2i64, 3i64));
        // Original unchanged.
        assert_eq!(r.arity(), 1);
    }

    #[test]
    fn display_and_empty() {
        assert_eq!(row!(1i64, "a").to_string(), "(1, a)");
        assert_eq!(Row::empty().arity(), 0);
        assert_eq!(Row::empty().to_string(), "()");
    }

    #[test]
    fn a_map_of_rows_is_probed_by_slice() {
        use std::collections::{BTreeMap, HashMap};
        let rows = [row!(1i64, "a"), row!(1i64, "b"), row!(2i64)];
        let ordered: BTreeMap<Row, usize> = rows.iter().cloned().zip(0..).collect();
        let hashed: HashMap<Row, usize> = rows.iter().cloned().zip(0..).collect();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(ordered.get(row.values()), Some(&i));
            assert_eq!(hashed.get(row.values()), Some(&i));
        }
        assert_eq!(ordered.get(&[Value::Int(1)][..]), None);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(row!(1i64, 2i64) < row!(1i64, 3i64));
        assert!(row!(1i64) < row!(1i64, 0i64));
    }
}
