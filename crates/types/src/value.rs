//! The dynamically-typed scalar value model.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::datatype::DataType;
use crate::error::{Error, Result};
use crate::temporal::{Duration, Ts};

/// A single scalar value.
///
/// `Value` is the runtime representation of every cell in a row. It carries
/// its own type tag so rows stay schema-free at runtime; the planner is
/// responsible for type checking ahead of execution.
///
/// Equality and ordering are *total* (floats compare with IEEE
/// `total_cmp`, `Null` sorts first), so values can be used directly as keys
/// in ordered state and grouping maps. SQL three-valued comparison semantics
/// are provided separately by [`Value::sql_eq`] and [`Value::sql_cmp`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string; `Arc` so row clones are cheap.
    Str(Arc<str>),
    /// Event or processing timestamp.
    Ts(Ts),
    /// Interval / duration.
    Interval(Duration),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// The runtime type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::String,
            Value::Ts(_) => DataType::Timestamp,
            Value::Interval(_) => DataType::Interval,
        }
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract a boolean, or error.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::type_error(format!(
                "expected BOOLEAN, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract an integer, or error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(Error::type_error(format!(
                "expected BIGINT, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract a float (widening from int), or error.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(Error::type_error(format!(
                "expected DOUBLE, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract a string slice, or error.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::type_error(format!(
                "expected VARCHAR, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract a timestamp, or error.
    pub fn as_ts(&self) -> Result<Ts> {
        match self {
            Value::Ts(t) => Ok(*t),
            other => Err(Error::type_error(format!(
                "expected TIMESTAMP, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract an interval, or error.
    pub fn as_interval(&self) -> Result<Duration> {
        match self {
            Value::Interval(d) => Ok(*d),
            other => Err(Error::type_error(format!(
                "expected INTERVAL, got {}",
                other.data_type()
            ))),
        }
    }

    /// SQL equality: NULL compared with anything yields `None` (UNKNOWN).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.coerced_cmp(other) == Ordering::Equal)
    }

    /// SQL comparison: `None` if either side is NULL, else the ordering with
    /// numeric int/float coercion.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.coerced_cmp(other))
    }

    /// Total comparison with int/float coercion; used by both SQL comparison
    /// (after NULL screening) and `ORDER BY`.
    fn coerced_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.cmp(other),
        }
    }

    /// Add two values with SQL semantics (NULL-propagating). Supports
    /// numeric addition, timestamp + interval, interval + interval.
    pub fn add(&self, other: &Value) -> Result<Value> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a
                .checked_add(*b)
                .ok_or_else(|| Error::exec("BIGINT overflow in addition"))?),
            (Float(a), Float(b)) => Float(a + b),
            (Int(a), Float(b)) => Float(*a as f64 + b),
            (Float(a), Int(b)) => Float(a + *b as f64),
            (Ts(t), Interval(d)) | (Interval(d), Ts(t)) => Ts(*t + *d),
            (Interval(a), Interval(b)) => Interval(*a + *b),
            (a, b) => {
                return Err(Error::type_error(format!(
                    "cannot add {} and {}",
                    a.data_type(),
                    b.data_type()
                )))
            }
        })
    }

    /// Subtract with SQL semantics. Supports numeric, timestamp - interval,
    /// timestamp - timestamp (yielding interval), interval - interval.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a
                .checked_sub(*b)
                .ok_or_else(|| Error::exec("BIGINT overflow in subtraction"))?),
            (Float(a), Float(b)) => Float(a - b),
            (Int(a), Float(b)) => Float(*a as f64 - b),
            (Float(a), Int(b)) => Float(a - *b as f64),
            (Ts(t), Interval(d)) => Ts(*t - *d),
            (Ts(a), Ts(b)) => Interval(*a - *b),
            (Interval(a), Interval(b)) => Interval(*a - *b),
            (a, b) => {
                return Err(Error::type_error(format!(
                    "cannot subtract {} from {}",
                    b.data_type(),
                    a.data_type()
                )))
            }
        })
    }

    /// Multiply with SQL semantics. Supports numeric and interval * int.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(a), Int(b)) => Int(a
                .checked_mul(*b)
                .ok_or_else(|| Error::exec("BIGINT overflow in multiplication"))?),
            (Float(a), Float(b)) => Float(a * b),
            (Int(a), Float(b)) => Float(*a as f64 * b),
            (Float(a), Int(b)) => Float(a * *b as f64),
            (Interval(d), Int(k)) | (Int(k), Interval(d)) => {
                Interval(crate::Duration(d.0.checked_mul(*k).ok_or_else(|| {
                    Error::exec("INTERVAL overflow in multiplication")
                })?))
            }
            (a, b) => {
                return Err(Error::type_error(format!(
                    "cannot multiply {} and {}",
                    a.data_type(),
                    b.data_type()
                )))
            }
        })
    }

    /// Divide with SQL semantics (integer division for INT/INT; division by
    /// zero is an error, not NULL, matching strict engines).
    pub fn div(&self, other: &Value) -> Result<Value> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(_), Int(0)) => return Err(Error::exec("division by zero")),
            (Int(a), Int(b)) => Int(a / b),
            (Float(a), Float(b)) => Float(a / b),
            (Int(a), Float(b)) => Float(*a as f64 / b),
            (Float(a), Int(b)) => Float(a / *b as f64),
            (a, b) => {
                return Err(Error::type_error(format!(
                    "cannot divide {} by {}",
                    a.data_type(),
                    b.data_type()
                )))
            }
        })
    }

    /// Remainder with SQL semantics.
    pub fn rem(&self, other: &Value) -> Result<Value> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => Null,
            (Int(_), Int(0)) => return Err(Error::exec("division by zero")),
            (Int(a), Int(b)) => Int(a % b),
            (Float(a), Float(b)) => Float(a % b),
            (a, b) => {
                return Err(Error::type_error(format!(
                    "cannot take remainder of {} by {}",
                    a.data_type(),
                    b.data_type()
                )))
            }
        })
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> Result<Value> {
        use Value::*;
        Ok(match self {
            Null => Null,
            Int(a) => Int(a
                .checked_neg()
                .ok_or_else(|| Error::exec("BIGINT overflow in negation"))?),
            Float(a) => Float(-a),
            Interval(d) => Interval(crate::Duration(-d.0)),
            a => {
                return Err(Error::type_error(format!(
                    "cannot negate {}",
                    a.data_type()
                )))
            }
        })
    }

    /// Cast this value to the target type, per SQL `CAST` rules.
    pub fn cast(&self, target: DataType) -> Result<Value> {
        use Value::*;
        if self.data_type() == target {
            return Ok(self.clone());
        }
        Ok(match (self, target) {
            (Null, _) => Null,
            (Int(i), DataType::Float) => Float(*i as f64),
            (Float(f), DataType::Int) => Int(*f as i64),
            (Int(i), DataType::String) => Value::str(i.to_string()),
            (Float(f), DataType::String) => Value::str(f.to_string()),
            (Bool(b), DataType::String) => Value::str(if *b { "true" } else { "false" }),
            (Ts(t), DataType::String) => Value::str(t.to_clock_string()),
            (Interval(d), DataType::String) => Value::str(d.to_compact_string()),
            (Int(i), DataType::Timestamp) => Ts(crate::Ts(*i)),
            (Ts(t), DataType::Int) => Int(t.millis()),
            (Interval(d), DataType::Int) => Int(d.millis()),
            (Int(i), DataType::Interval) => Interval(crate::Duration(*i)),
            (Str(s), DataType::Int) => Int(s
                .trim()
                .parse::<i64>()
                .map_err(|_| Error::exec(format!("cannot cast '{s}' to BIGINT")))?),
            (Str(s), DataType::Float) => Float(
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| Error::exec(format!("cannot cast '{s}' to DOUBLE")))?,
            ),
            (Str(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Bool(true),
                "false" | "f" | "0" => Bool(false),
                _ => return Err(Error::exec(format!("cannot cast '{s}' to BOOLEAN"))),
            },
            (v, t) => {
                return Err(Error::type_error(format!(
                    "unsupported cast from {} to {}",
                    v.data_type(),
                    t
                )))
            }
        })
    }

    /// Rank of the type tag, used to give `Value` a total order across
    /// types (NULL first, then bool, numeric, string, timestamp, interval).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Ts(_) => 5,
            Value::Interval(_) => 6,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Ts(a), Ts(b)) => a.cmp(b),
            (Interval(a), Interval(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Ts(t) => t.hash(state),
            Value::Interval(d) => d.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => f.write_str(crate::digits::i64(*i).as_str()),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
            Value::Ts(t) => t.write_clock(f),
            Value::Interval(d) => f.write_str(crate::digits::interval(*d).as_str()),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}
impl From<Ts> for Value {
    fn from(t: Ts) -> Self {
        Value::Ts(t)
    }
}
impl From<Duration> for Value {
    fn from(d: Duration) -> Self {
        Value::Interval(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert!(Value::Null.is_null());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Int(7).as_float().unwrap(), 7.0);
        assert_eq!(Value::str("x").as_str().unwrap(), "x");
        assert_eq!(Value::Ts(Ts::hm(8, 0)).as_ts().unwrap(), Ts::hm(8, 0));
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::str("x").as_int().is_err());
    }

    #[test]
    fn sql_null_semantics() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn numeric_coercion_in_comparison() {
        assert_eq!(Value::Int(2).sql_eq(&Value::Float(2.0)), Some(true));
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn arithmetic_matrix() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Value::Ts(Ts::hm(8, 0))
                .add(&Value::Interval(Duration::from_minutes(10)))
                .unwrap(),
            Value::Ts(Ts::hm(8, 10))
        );
        assert_eq!(
            Value::Ts(Ts::hm(8, 10))
                .sub(&Value::Ts(Ts::hm(8, 0)))
                .unwrap(),
            Value::Interval(Duration::from_minutes(10))
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(Value::Int(7).rem(&Value::Int(2)).unwrap(), Value::Int(1));
        assert_eq!(Value::Int(5).neg().unwrap(), Value::Int(-5));
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::str("a").add(&Value::Int(1)).is_err());
    }

    #[test]
    fn arithmetic_null_propagation() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).mul(&Value::Null).unwrap().is_null());
        assert!(Value::Null.neg().unwrap().is_null());
    }

    #[test]
    fn overflow_detected() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).neg().is_err());
        assert!(Value::Int(i64::MAX).mul(&Value::Int(2)).is_err());
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::str("42").cast(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Int(42).cast(DataType::String).unwrap(),
            Value::str("42")
        );
        assert_eq!(
            Value::Int(2).cast(DataType::Float).unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            Value::str("true").cast(DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert!(Value::str("nope").cast(DataType::Int).is_err());
        assert!(Value::Null.cast(DataType::Int).unwrap().is_null());
    }

    #[test]
    fn total_order_across_types() {
        let mut vals = [
            Value::str("a"),
            Value::Int(1),
            Value::Null,
            Value::Float(0.5),
            Value::Bool(true),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(1));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let mut vals = [
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(f64::NEG_INFINITY),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Float(f64::NEG_INFINITY));
        assert_eq!(vals[1], Value::Float(1.0));
        // NaN sorts last under total_cmp and compares equal to itself.
        assert_eq!(vals[2], Value::Float(f64::NAN));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Ts(Ts::hm(8, 7)).to_string(), "8:07");
        assert_eq!(
            Value::Interval(Duration::from_minutes(10)).to_string(),
            "10m"
        );
    }
}
