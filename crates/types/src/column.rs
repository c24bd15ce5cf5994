//! Typed columnar storage for vectorized execution.
//!
//! A [`Column`] is an immutable, reference-counted vector of SQL values that
//! stores homogeneously-typed data unboxed (`Vec<i64>`, `Vec<f64>`, …) with an
//! optional validity mask, falling back to a boxed [`Value`] vector
//! ([`ColumnData::Mixed`]) when a column mixes types. Columns are the unit the
//! vectorized expression kernels operate on; rows materialize only at the
//! source and sink boundaries (see `docs/VECTORIZED.md`).

use std::fmt;
use std::sync::Arc;

use crate::datatype::DataType;
use crate::temporal::{Duration, Ts};
use crate::value::Value;

/// Physical storage for one column of a batch.
///
/// Typed variants hold unboxed values plus an optional null mask (`None`
/// means "no nulls"); null slots hold an arbitrary placeholder that must
/// never be read. [`ColumnData::Mixed`] is the escape hatch for columns whose
/// values do not share a single runtime type.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// 64-bit signed integers (SQL `BIGINT`).
    Int {
        /// Unboxed values; placeholder at null slots.
        vals: Vec<i64>,
        /// `true` marks a NULL slot; `None` means no nulls at all.
        nulls: Option<Vec<bool>>,
    },
    /// 64-bit floats (SQL `DOUBLE`).
    Float {
        /// Unboxed values; placeholder at null slots.
        vals: Vec<f64>,
        /// `true` marks a NULL slot; `None` means no nulls at all.
        nulls: Option<Vec<bool>>,
    },
    /// Booleans.
    Bool {
        /// Unboxed values; placeholder at null slots.
        vals: Vec<bool>,
        /// `true` marks a NULL slot; `None` means no nulls at all.
        nulls: Option<Vec<bool>>,
    },
    /// Event/processing timestamps (SQL `TIMESTAMP`).
    Ts {
        /// Unboxed values; placeholder at null slots.
        vals: Vec<Ts>,
        /// `true` marks a NULL slot; `None` means no nulls at all.
        nulls: Option<Vec<bool>>,
    },
    /// Durations (SQL `INTERVAL`).
    Interval {
        /// Unboxed values; placeholder at null slots.
        vals: Vec<Duration>,
        /// `true` marks a NULL slot; `None` means no nulls at all.
        nulls: Option<Vec<bool>>,
    },
    /// Reference-counted strings (SQL `VARCHAR`).
    Str {
        /// Shared string values; placeholder at null slots.
        vals: Vec<Arc<str>>,
        /// `true` marks a NULL slot; `None` means no nulls at all.
        nulls: Option<Vec<bool>>,
    },
    /// Heterogeneous fallback: one boxed [`Value`] per row.
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int { vals, .. } => vals.len(),
            ColumnData::Float { vals, .. } => vals.len(),
            ColumnData::Bool { vals, .. } => vals.len(),
            ColumnData::Ts { vals, .. } => vals.len(),
            ColumnData::Interval { vals, .. } => vals.len(),
            ColumnData::Str { vals, .. } => vals.len(),
            ColumnData::Mixed(vals) => vals.len(),
        }
    }

    /// Heap bytes the storage holds: every slot at its allocated capacity,
    /// the null mask, and each string's payload.
    fn heap_bytes(&self) -> usize {
        fn lane<T>(vals: &Vec<T>, nulls: &Option<Vec<bool>>) -> usize {
            vals.capacity() * std::mem::size_of::<T>() + nulls.as_ref().map_or(0, Vec::capacity)
        }
        match self {
            ColumnData::Int { vals, nulls } => lane(vals, nulls),
            ColumnData::Float { vals, nulls } => lane(vals, nulls),
            ColumnData::Bool { vals, nulls } => lane(vals, nulls),
            ColumnData::Ts { vals, nulls } => lane(vals, nulls),
            ColumnData::Interval { vals, nulls } => lane(vals, nulls),
            ColumnData::Str { vals, nulls } => lane(vals, nulls) + str_bytes(vals),
            ColumnData::Mixed(vals) => lane(vals, &None) + value_str_bytes(vals),
        }
    }
}

/// Payload bytes of the strings in `vals`.
fn str_bytes(vals: &[Arc<str>]) -> usize {
    vals.iter().map(|s| s.len()).sum()
}

/// Payload bytes of the strings among boxed `vals`.
fn value_str_bytes(vals: &[Value]) -> usize {
    let strings = vals.iter().filter_map(|v| match v {
        Value::Str(s) => Some(s.len()),
        _ => None,
    });
    strings.sum()
}

/// An immutable, cheaply-cloneable column of values.
///
/// Cloning a `Column` is a pointer copy, so kernels can pass input columns
/// through unchanged (e.g. a projection of a bare column reference) without
/// copying data.
#[derive(Clone, Debug)]
pub struct Column(Arc<ColumnData>);

impl Column {
    /// Wrap physical storage in a column.
    pub fn new(data: ColumnData) -> Column {
        Column(Arc::new(data))
    }

    /// Build a column from boxed values, detecting a homogeneous type.
    ///
    /// If every non-null value shares one runtime type the column is stored
    /// unboxed with a null mask; otherwise it falls back to
    /// [`ColumnData::Mixed`]. An all-null column is stored as `Mixed`.
    pub fn from_values(values: Vec<Value>) -> Column {
        let tag = values
            .iter()
            .find(|v| !matches!(v, Value::Null))
            .map(Value::data_type);
        let homogeneous = match tag {
            Some(t) => values
                .iter()
                .all(|v| matches!(v, Value::Null) || v.data_type() == t),
            None => false,
        };
        if !homogeneous {
            return Column::new(ColumnData::Mixed(values));
        }
        let mut b = ColumnBuilder::with_capacity(values.len());
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    /// A column of `len` copies of `value` (scalar broadcast).
    pub fn repeat(value: &Value, len: usize) -> Column {
        Column::from_values(vec![value.clone(); len])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the physical storage (used by kernels for typed fast paths).
    pub fn data(&self) -> &ColumnData {
        &self.0
    }

    /// Heap bytes the column holds: its slots at allocated capacity, its
    /// null mask, and the payload of every string it points to (counted
    /// once per slot, even where slots share a string).
    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }

    /// Whether the value at `i` is SQL NULL.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn is_null(&self, i: usize) -> bool {
        match self.data() {
            ColumnData::Int { nulls, vals } => {
                assert!(i < vals.len());
                nulls.as_ref().is_some_and(|n| n[i])
            }
            ColumnData::Float { nulls, vals } => {
                assert!(i < vals.len());
                nulls.as_ref().is_some_and(|n| n[i])
            }
            ColumnData::Bool { nulls, vals } => {
                assert!(i < vals.len());
                nulls.as_ref().is_some_and(|n| n[i])
            }
            ColumnData::Ts { nulls, vals } => {
                assert!(i < vals.len());
                nulls.as_ref().is_some_and(|n| n[i])
            }
            ColumnData::Interval { nulls, vals } => {
                assert!(i < vals.len());
                nulls.as_ref().is_some_and(|n| n[i])
            }
            ColumnData::Str { nulls, vals } => {
                assert!(i < vals.len());
                nulls.as_ref().is_some_and(|n| n[i])
            }
            ColumnData::Mixed(vals) => matches!(vals[i], Value::Null),
        }
    }

    /// Materialize the value at `i` as a boxed [`Value`].
    ///
    /// Cheap for all variants (`Str` clones an `Arc`).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn value(&self, i: usize) -> Value {
        match self.data() {
            ColumnData::Int { vals, nulls } => {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    Value::Null
                } else {
                    Value::Int(vals[i])
                }
            }
            ColumnData::Float { vals, nulls } => {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    Value::Null
                } else {
                    Value::Float(vals[i])
                }
            }
            ColumnData::Bool { vals, nulls } => {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    Value::Null
                } else {
                    Value::Bool(vals[i])
                }
            }
            ColumnData::Ts { vals, nulls } => {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    Value::Null
                } else {
                    Value::Ts(vals[i])
                }
            }
            ColumnData::Interval { vals, nulls } => {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    Value::Null
                } else {
                    Value::Interval(vals[i])
                }
            }
            ColumnData::Str { vals, nulls } => {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    Value::Null
                } else {
                    Value::Str(vals[i].clone())
                }
            }
            ColumnData::Mixed(vals) => vals[i].clone(),
        }
    }

    /// The runtime [`DataType`] of a typed column, or `None` for `Mixed`.
    pub fn uniform_type(&self) -> Option<DataType> {
        match self.data() {
            ColumnData::Int { .. } => Some(DataType::Int),
            ColumnData::Float { .. } => Some(DataType::Float),
            ColumnData::Bool { .. } => Some(DataType::Bool),
            ColumnData::Ts { .. } => Some(DataType::Timestamp),
            ColumnData::Interval { .. } => Some(DataType::Interval),
            ColumnData::Str { .. } => Some(DataType::String),
            ColumnData::Mixed(_) => None,
        }
    }

    /// Whether the column contains any NULL.
    pub fn has_nulls(&self) -> bool {
        match self.data() {
            ColumnData::Int { nulls, .. }
            | ColumnData::Float { nulls, .. }
            | ColumnData::Bool { nulls, .. }
            | ColumnData::Ts { nulls, .. }
            | ColumnData::Interval { nulls, .. }
            | ColumnData::Str { nulls, .. } => nulls.is_some(),
            ColumnData::Mixed(vals) => vals.iter().any(|v| matches!(v, Value::Null)),
        }
    }

    /// Give back the storage's spare capacity, when no other handle shares
    /// it.
    pub fn shrink_to_fit(&mut self) {
        fn shrink<T>(vals: &mut Vec<T>, nulls: &mut Option<Vec<bool>>) {
            vals.shrink_to_fit();
            if let Some(mask) = nulls {
                mask.shrink_to_fit();
            }
        }
        let Some(data) = Arc::get_mut(&mut self.0) else {
            return;
        };
        match data {
            ColumnData::Int { vals, nulls } => shrink(vals, nulls),
            ColumnData::Float { vals, nulls } => shrink(vals, nulls),
            ColumnData::Bool { vals, nulls } => shrink(vals, nulls),
            ColumnData::Ts { vals, nulls } => shrink(vals, nulls),
            ColumnData::Interval { vals, nulls } => shrink(vals, nulls),
            ColumnData::Str { vals, nulls } => shrink(vals, nulls),
            ColumnData::Mixed(vals) => vals.shrink_to_fit(),
        }
    }

    /// Estimated payload bytes of the rows at `rows` (every row when
    /// `None`): 8 per fixed-width value (int, float, timestamp, interval),
    /// 1 per null or boolean, a string's length for a string. A stable,
    /// cheap estimator — not a wire format — so byte counters mean the same
    /// thing on every connector and survive checkpoints deterministically.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn payload_bytes(&self, rows: Option<&[u32]>) -> u64 {
        fn fixed(len: usize, nulls: &Option<Vec<bool>>, rows: Option<&[u32]>) -> u64 {
            let null_count = match (nulls, rows) {
                (None, _) => 0,
                (Some(mask), None) => mask.iter().filter(|&&n| n).count(),
                (Some(mask), Some(rows)) => rows.iter().filter(|&&i| mask[i as usize]).count(),
            };
            let len = rows.map_or(len, <[u32]>::len);
            (8 * (len - null_count) + null_count) as u64
        }
        let each = |len: usize, at: &dyn Fn(usize) -> u64| -> u64 {
            match rows {
                None => (0..len).map(at).sum(),
                Some(rows) => rows.iter().map(|&i| at(i as usize)).sum(),
            }
        };
        match self.data() {
            ColumnData::Int { vals, nulls } => fixed(vals.len(), nulls, rows),
            ColumnData::Float { vals, nulls } => fixed(vals.len(), nulls, rows),
            ColumnData::Ts { vals, nulls } => fixed(vals.len(), nulls, rows),
            ColumnData::Interval { vals, nulls } => fixed(vals.len(), nulls, rows),
            ColumnData::Bool { vals, .. } => rows.map_or(vals.len(), <[u32]>::len) as u64,
            ColumnData::Str { vals, nulls } => each(vals.len(), &|i| {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    1
                } else {
                    vals[i].len() as u64
                }
            }),
            ColumnData::Mixed(vals) => each(vals.len(), &|i| match &vals[i] {
                Value::Null | Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) | Value::Ts(_) | Value::Interval(_) => 8,
                Value::Str(s) => s.len() as u64,
            }),
        }
    }

    /// Gather rows at the given physical indices into a new dense column.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[u32]) -> Column {
        fn pick<T: Clone>(
            vals: &[T],
            nulls: &Option<Vec<bool>>,
            indices: &[u32],
        ) -> (Vec<T>, Option<Vec<bool>>) {
            let out: Vec<T> = indices.iter().map(|&i| vals[i as usize].clone()).collect();
            let n = nulls.as_ref().map(|n| {
                indices
                    .iter()
                    .map(|&i| n[i as usize])
                    .collect::<Vec<bool>>()
            });
            let n = n.filter(|m| m.iter().any(|&b| b));
            (out, n)
        }
        let data = match self.data() {
            ColumnData::Int { vals, nulls } => {
                let (vals, nulls) = pick(vals, nulls, indices);
                ColumnData::Int { vals, nulls }
            }
            ColumnData::Float { vals, nulls } => {
                let (vals, nulls) = pick(vals, nulls, indices);
                ColumnData::Float { vals, nulls }
            }
            ColumnData::Bool { vals, nulls } => {
                let (vals, nulls) = pick(vals, nulls, indices);
                ColumnData::Bool { vals, nulls }
            }
            ColumnData::Ts { vals, nulls } => {
                let (vals, nulls) = pick(vals, nulls, indices);
                ColumnData::Ts { vals, nulls }
            }
            ColumnData::Interval { vals, nulls } => {
                let (vals, nulls) = pick(vals, nulls, indices);
                ColumnData::Interval { vals, nulls }
            }
            ColumnData::Str { vals, nulls } => {
                let (vals, nulls) = pick(vals, nulls, indices);
                ColumnData::Str { vals, nulls }
            }
            ColumnData::Mixed(vals) => {
                ColumnData::Mixed(indices.iter().map(|&i| vals[i as usize].clone()).collect())
            }
        };
        Column::new(data)
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for i in 0..self.len() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.value(i))?;
        }
        write!(f, "]")
    }
}

#[derive(Clone)]
enum BuilderData {
    Empty,
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    Ts(Vec<Ts>),
    Interval(Vec<Duration>),
    Str(Vec<Arc<str>>),
    Mixed(Vec<Value>),
}

/// Incremental [`Column`] builder.
///
/// The first non-null value fixes the column's type; later values of a
/// different type demote the whole column to [`ColumnData::Mixed`]. Connector
/// code that knows the schema up front can use the typed `push_*` methods to
/// skip boxing entirely.
#[derive(Clone)]
pub struct ColumnBuilder {
    data: BuilderData,
    /// The null mask, built at the first NULL: empty while there is none,
    /// one flag per row appended after.
    nulls: Vec<bool>,
    /// The row of the NULL that built the mask.
    first_null: usize,
    /// Rows appended.
    len: usize,
    /// Number of leading nulls buffered before the type is known.
    pending_nulls: usize,
    capacity: usize,
}

impl ColumnBuilder {
    /// New builder with a row-count hint.
    pub fn with_capacity(capacity: usize) -> ColumnBuilder {
        ColumnBuilder {
            data: BuilderData::Empty,
            nulls: Vec::new(),
            first_null: 0,
            len: 0,
            pending_nulls: 0,
            capacity,
        }
    }

    fn note(&mut self, is_null: bool) {
        if is_null && self.nulls.is_empty() {
            self.first_null = self.len;
            self.nulls.reserve(self.capacity.max(self.len + 1));
            self.nulls.resize(self.len, false);
        }
        if !self.nulls.is_empty() || is_null {
            self.nulls.push(is_null);
        }
        self.len += 1;
    }

    /// Whether row `i` (appended) is NULL.
    fn null_at(&self, i: usize) -> bool {
        self.nulls.get(i).copied().unwrap_or(false)
    }

    fn demote(&mut self) -> &mut Vec<Value> {
        let mut boxed: Vec<Value> = Vec::with_capacity(self.capacity.max(self.len + 1));
        match std::mem::replace(&mut self.data, BuilderData::Empty) {
            BuilderData::Empty => {
                boxed.extend(std::iter::repeat_n(Value::Null, self.pending_nulls));
                self.pending_nulls = 0;
            }
            BuilderData::Int(vals) => {
                for (i, v) in vals.into_iter().enumerate() {
                    boxed.push(if self.null_at(i) {
                        Value::Null
                    } else {
                        Value::Int(v)
                    });
                }
            }
            BuilderData::Float(vals) => {
                for (i, v) in vals.into_iter().enumerate() {
                    boxed.push(if self.null_at(i) {
                        Value::Null
                    } else {
                        Value::Float(v)
                    });
                }
            }
            BuilderData::Bool(vals) => {
                for (i, v) in vals.into_iter().enumerate() {
                    boxed.push(if self.null_at(i) {
                        Value::Null
                    } else {
                        Value::Bool(v)
                    });
                }
            }
            BuilderData::Ts(vals) => {
                for (i, v) in vals.into_iter().enumerate() {
                    boxed.push(if self.null_at(i) {
                        Value::Null
                    } else {
                        Value::Ts(v)
                    });
                }
            }
            BuilderData::Interval(vals) => {
                for (i, v) in vals.into_iter().enumerate() {
                    boxed.push(if self.null_at(i) {
                        Value::Null
                    } else {
                        Value::Interval(v)
                    });
                }
            }
            BuilderData::Str(vals) => {
                for (i, v) in vals.into_iter().enumerate() {
                    boxed.push(if self.null_at(i) {
                        Value::Null
                    } else {
                        Value::Str(v)
                    });
                }
            }
            BuilderData::Mixed(vals) => boxed = vals,
        }
        self.data = BuilderData::Mixed(boxed);
        match &mut self.data {
            BuilderData::Mixed(vals) => vals,
            _ => unreachable!(),
        }
    }

    fn start<T>(&mut self, placeholder: T) -> Vec<T>
    where
        T: Clone,
    {
        let mut vals = Vec::with_capacity(self.capacity.max(self.pending_nulls + 1));
        vals.extend(std::iter::repeat_n(placeholder, self.pending_nulls));
        self.pending_nulls = 0;
        vals
    }

    /// Append a NULL.
    pub fn push_null(&mut self) {
        self.note(true);
        match &mut self.data {
            BuilderData::Empty => self.pending_nulls += 1,
            BuilderData::Int(vals) => vals.push(0),
            BuilderData::Float(vals) => vals.push(0.0),
            BuilderData::Bool(vals) => vals.push(false),
            BuilderData::Ts(vals) => vals.push(Ts::from_millis(0)),
            BuilderData::Interval(vals) => vals.push(Duration::from_millis(0)),
            BuilderData::Str(vals) => vals.push(Arc::from("")),
            BuilderData::Mixed(vals) => vals.push(Value::Null),
        }
    }

    /// Append an `i64` (BIGINT) value.
    pub fn push_int(&mut self, v: i64) {
        self.note(false);
        match &mut self.data {
            BuilderData::Empty => {
                let vals = self.start(0i64);
                self.data = BuilderData::Int(vals);
                match &mut self.data {
                    BuilderData::Int(vals) => vals.push(v),
                    _ => unreachable!(),
                }
            }
            BuilderData::Int(vals) => vals.push(v),
            _ => self.demote().push(Value::Int(v)),
        }
    }

    /// Append an `f64` (DOUBLE) value.
    pub fn push_float(&mut self, v: f64) {
        self.note(false);
        match &mut self.data {
            BuilderData::Empty => {
                let vals = self.start(0.0f64);
                self.data = BuilderData::Float(vals);
                match &mut self.data {
                    BuilderData::Float(vals) => vals.push(v),
                    _ => unreachable!(),
                }
            }
            BuilderData::Float(vals) => vals.push(v),
            _ => self.demote().push(Value::Float(v)),
        }
    }

    /// Append a boolean value.
    pub fn push_bool(&mut self, v: bool) {
        self.note(false);
        match &mut self.data {
            BuilderData::Empty => {
                let vals = self.start(false);
                self.data = BuilderData::Bool(vals);
                match &mut self.data {
                    BuilderData::Bool(vals) => vals.push(v),
                    _ => unreachable!(),
                }
            }
            BuilderData::Bool(vals) => vals.push(v),
            _ => self.demote().push(Value::Bool(v)),
        }
    }

    /// Append a timestamp value.
    pub fn push_ts(&mut self, v: Ts) {
        self.note(false);
        match &mut self.data {
            BuilderData::Empty => {
                let vals = self.start(Ts::from_millis(0));
                self.data = BuilderData::Ts(vals);
                match &mut self.data {
                    BuilderData::Ts(vals) => vals.push(v),
                    _ => unreachable!(),
                }
            }
            BuilderData::Ts(vals) => vals.push(v),
            _ => self.demote().push(Value::Ts(v)),
        }
    }

    /// Append an interval value.
    pub fn push_interval(&mut self, v: Duration) {
        self.note(false);
        match &mut self.data {
            BuilderData::Empty => {
                let vals = self.start(Duration::from_millis(0));
                self.data = BuilderData::Interval(vals);
                match &mut self.data {
                    BuilderData::Interval(vals) => vals.push(v),
                    _ => unreachable!(),
                }
            }
            BuilderData::Interval(vals) => vals.push(v),
            _ => self.demote().push(Value::Interval(v)),
        }
    }

    /// Append a string value.
    pub fn push_str(&mut self, v: Arc<str>) {
        self.note(false);
        match &mut self.data {
            BuilderData::Empty => {
                let vals = self.start(Arc::from(""));
                self.data = BuilderData::Str(vals);
                match &mut self.data {
                    BuilderData::Str(vals) => vals.push(v),
                    _ => unreachable!(),
                }
            }
            BuilderData::Str(vals) => vals.push(v),
            _ => self.demote().push(Value::Str(v)),
        }
    }

    /// Append a boxed [`Value`], dispatching to the typed paths.
    pub fn push(&mut self, v: Value) {
        match v {
            Value::Null => self.push_null(),
            Value::Int(i) => self.push_int(i),
            Value::Float(f) => self.push_float(f),
            Value::Bool(b) => self.push_bool(b),
            Value::Ts(t) => self.push_ts(t),
            Value::Interval(d) => self.push_interval(d),
            Value::Str(s) => self.push_str(s),
        }
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Drop every row from `len` on. The rows left finish as they would
    /// have without the dropped ones, null mask included; the type the
    /// first non-null value fixed stays.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        if len <= self.first_null {
            self.nulls.clear();
        } else {
            self.nulls.truncate(len);
        }
        match &mut self.data {
            BuilderData::Empty => self.pending_nulls = len,
            BuilderData::Int(v) => v.truncate(len),
            BuilderData::Float(v) => v.truncate(len),
            BuilderData::Bool(v) => v.truncate(len),
            BuilderData::Ts(v) => v.truncate(len),
            BuilderData::Interval(v) => v.truncate(len),
            BuilderData::Str(v) => v.truncate(len),
            BuilderData::Mixed(v) => v.truncate(len),
        }
    }

    /// Whether no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value appended at `i`, read back before the column is finished.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn value(&self, i: usize) -> Value {
        assert!(i < self.len, "row {i} of {}", self.len);
        if self.null_at(i) {
            return Value::Null;
        }
        match &self.data {
            BuilderData::Empty => Value::Null,
            BuilderData::Int(vals) => Value::Int(vals[i]),
            BuilderData::Float(vals) => Value::Float(vals[i]),
            BuilderData::Bool(vals) => Value::Bool(vals[i]),
            BuilderData::Ts(vals) => Value::Ts(vals[i]),
            BuilderData::Interval(vals) => Value::Interval(vals[i]),
            BuilderData::Str(vals) => Value::Str(vals[i].clone()),
            BuilderData::Mixed(vals) => vals[i].clone(),
        }
    }

    /// Heap bytes the builder holds so far, counted as
    /// [`Column::heap_bytes`] counts a finished column (the null mask, once
    /// a NULL started it, in full).
    pub fn heap_bytes(&self) -> usize {
        fn lane<T>(vals: &Vec<T>) -> usize {
            vals.capacity() * std::mem::size_of::<T>()
        }
        let vals = match &self.data {
            BuilderData::Empty => 0,
            BuilderData::Int(vals) => lane(vals),
            BuilderData::Float(vals) => lane(vals),
            BuilderData::Bool(vals) => lane(vals),
            BuilderData::Ts(vals) => lane(vals),
            BuilderData::Interval(vals) => lane(vals),
            BuilderData::Str(vals) => lane(vals) + str_bytes(vals),
            BuilderData::Mixed(vals) => lane(vals) + value_str_bytes(vals),
        };
        vals + self.nulls.capacity()
    }

    /// Finish the column.
    pub fn finish(self) -> Column {
        let nulls = (!self.nulls.is_empty()).then_some(self.nulls);
        let data = match self.data {
            BuilderData::Empty => {
                // Either truly empty or all-null: box it.
                BuilderData::Mixed(vec![Value::Null; self.pending_nulls])
            }
            other => other,
        };
        let data = match data {
            BuilderData::Empty => unreachable!(),
            BuilderData::Int(vals) => ColumnData::Int { vals, nulls },
            BuilderData::Float(vals) => ColumnData::Float { vals, nulls },
            BuilderData::Bool(vals) => ColumnData::Bool { vals, nulls },
            BuilderData::Ts(vals) => ColumnData::Ts { vals, nulls },
            BuilderData::Interval(vals) => ColumnData::Interval { vals, nulls },
            BuilderData::Str(vals) => ColumnData::Str { vals, nulls },
            BuilderData::Mixed(vals) => ColumnData::Mixed(vals),
        };
        Column::new(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_roundtrip() {
        let c = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert!(matches!(c.data(), ColumnData::Int { .. }));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        assert!(c.is_null(1));
        assert!(!c.is_null(2));
        assert_eq!(c.value(2), Value::Int(3));
        assert!(c.has_nulls());
        assert_eq!(c.uniform_type(), Some(DataType::Int));
    }

    #[test]
    fn mixed_fallback() {
        let c = Column::from_values(vec![Value::Int(1), Value::str("a")]);
        assert!(matches!(c.data(), ColumnData::Mixed(_)));
        assert_eq!(c.value(1), Value::str("a"));
        assert_eq!(c.uniform_type(), None);
    }

    #[test]
    fn all_null_is_mixed() {
        let c = Column::from_values(vec![Value::Null, Value::Null]);
        assert!(matches!(c.data(), ColumnData::Mixed(_)));
        assert!(c.is_null(0) && c.is_null(1));
    }

    #[test]
    fn builder_demotes_on_type_change() {
        let mut b = ColumnBuilder::with_capacity(4);
        b.push_null();
        b.push_int(7);
        b.push_str(Arc::from("x"));
        let c = b.finish();
        assert!(matches!(c.data(), ColumnData::Mixed(_)));
        assert_eq!(c.value(0), Value::Null);
        assert_eq!(c.value(1), Value::Int(7));
        assert_eq!(c.value(2), Value::str("x"));
    }

    #[test]
    fn a_truncated_builder_finishes_as_if_the_rows_never_came() {
        let mut b = ColumnBuilder::with_capacity(4);
        b.push_int(1);
        b.push_null();
        b.push_int(2);
        b.truncate(1);
        b.push_int(3);
        let c = b.finish();
        assert_eq!(c.len(), 2);
        assert_eq!((c.value(0), c.value(1)), (Value::Int(1), Value::Int(3)));
        assert!(!c.has_nulls(), "the mask went with the NULL that built it");

        let mut b = ColumnBuilder::with_capacity(4);
        b.push_null();
        b.push_int(1);
        b.push_null();
        b.truncate(2);
        let c = b.finish();
        assert_eq!((c.value(0), c.value(1)), (Value::Null, Value::Int(1)));
        assert!(c.has_nulls() && c.len() == 2);

        let mut b = ColumnBuilder::with_capacity(4);
        b.push_null();
        b.push_null();
        b.truncate(1);
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn gather_reorders() {
        let c = Column::from_values(vec![Value::Int(10), Value::Null, Value::Int(30)]);
        let g = c.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.value(0), Value::Int(30));
        assert_eq!(g.value(1), Value::Int(10));
        assert!(!g.has_nulls());
    }

    #[test]
    fn payload_bytes_count_each_value_as_a_change_does() {
        let ints = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(ints.payload_bytes(None), 8 + 1 + 8);
        assert_eq!(ints.payload_bytes(Some(&[1, 1, 2])), 1 + 1 + 8);
        let strs = Column::from_values(vec![Value::str("abc"), Value::Null]);
        assert_eq!(strs.payload_bytes(None), 3 + 1);
        let mixed = Column::from_values(vec![Value::Int(1), Value::str("ab"), Value::Bool(true)]);
        assert_eq!(mixed.payload_bytes(Some(&[1, 2])), 2 + 1);
        assert_eq!(
            Column::repeat(&Value::Bool(false), 4).payload_bytes(None),
            4
        );
    }

    #[test]
    fn repeat_broadcasts() {
        let c = Column::repeat(&Value::Bool(true), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(2), Value::Bool(true));
    }
}
