//! The lane codec: a run of changes of one arity as bytes, and back.
//!
//! One encoding for every byte format that carries changes as columns
//! (the OSQW wire, `docs/WIRE_FORMAT.md`). A run is its changes' typed
//! columns plus a diff lane and a ptime lane, every integer little-endian:
//!
//! ```text
//! u32 rows | u16 arity
//! u8 diff width (1 | 8) | diff × rows          i8 or i64 each
//! u32 runs | (i64 ptime, u32 count) × runs      run-length; counts sum to rows
//! column × arity:
//!   u8 type | u8 has nulls (0 | 1) | [null bitmap: ⌈rows / 8⌉ bytes, bit r of byte r / 8]
//!   payload:
//!     INT, FLOAT, TS, INTERVAL   rows × 8 bytes (i64, f64 bits, millis, millis)
//!     BOOL                       rows × 1 byte (0 | 1)
//!     STR                        rows × u32 byte length, then the UTF-8 bytes
//!     MIXED                      rows × tagged value: u8 tag | payload
//! ```
//!
//! A typed lane holds a placeholder (zero, or the empty string) at each
//! null slot. A column whose values do not share one type, or that holds
//! only nulls, is MIXED: each value tagged (NULL 0, BOOL 1 + byte, INT 2 +
//! i64, FLOAT 3 + f64 bits, STR 4 + u32 length + bytes, TS 5 + i64,
//! INTERVAL 6 + i64) and no bitmap.
//!
//! [`RunWriter`] appends changes one cell at a time straight into byte
//! lanes — from a [`Column`] at an index, or from a [`Value`] — and keeps
//! its buffers across [`RunWriter::reset`]s. [`decode_run`] turns the
//! bytes back into a dense [`ChangeBatch`], checking every count against
//! the bytes left before anything is sized by it, and raising each ptime to
//! the run's running maximum (a dense batch's ptimes never fall).

use std::sync::Arc;

use onesql_types::{Column, ColumnData, Duration, Error, Result, Ts, Value};

use crate::batch::ChangeBatch;

/// Lane types, as the column header's first byte.
const MIXED: u8 = 0;
const INT: u8 = 1;
const FLOAT: u8 = 2;
const BOOL: u8 = 3;
const TS: u8 = 4;
const INTERVAL: u8 = 5;
const STR: u8 = 6;

/// Value tags of a MIXED lane.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_TS: u8 = 5;
const TAG_INTERVAL: u8 = 6;

/// Bytes a run's header takes before its lanes: rows, arity, the diff
/// width and the ptime run count.
const RUN_HEADER: usize = 4 + 2 + 1 + 4;

/// What a row adds to a run beyond its values, at most: an i64 diff and a
/// ptime run of its own.
pub const ROW_BOUND: usize = 8 + 12;

/// A bound on the bytes a run of `rows` rows with `arity` columns takes,
/// given the [`value_len`]s of its values summed: its header, column
/// headers, and [`ROW_BOUND`] per row.
pub fn run_bound(arity: usize, rows: usize, values: usize) -> usize {
    RUN_HEADER + 2 * arity + rows * ROW_BOUND + values
}

/// What [`run_bound`] counts for `value`: its tagged bytes, and 9 for a
/// NULL. Every value takes at most that less one byte in a typed lane —
/// a NULL its placeholder, of 8 bytes at most — and that byte pays for
/// the lane's null bitmap; in a MIXED lane a value takes its tagged bytes.
pub fn value_len(value: &Value) -> usize {
    match value {
        Value::Bool(_) => 2,
        Value::Null | Value::Int(_) | Value::Float(_) | Value::Ts(_) | Value::Interval(_) => 9,
        Value::Str(s) => 5 + s.len(),
    }
}

/// [`value_len`] of the value at `at` of `column`, without boxing it.
pub fn cell_len(column: &Column, at: usize) -> usize {
    if column.is_null(at) {
        return 9;
    }
    match column.data() {
        ColumnData::Bool { .. } => 2,
        ColumnData::Str { vals, .. } => 5 + vals[at].len(),
        ColumnData::Mixed(vals) => value_len(&vals[at]),
        _ => 9,
    }
}

/// [`cell_len`] summed over `from..from + n` of `column`.
pub fn range_len(column: &Column, from: usize, n: usize) -> usize {
    match column.data() {
        ColumnData::Int { .. }
        | ColumnData::Float { .. }
        | ColumnData::Ts { .. }
        | ColumnData::Interval { .. } => 9 * n,
        _ => (from..from + n).map(|at| cell_len(column, at)).sum(),
    }
}

/// One column's lane as it is written.
#[derive(Clone, Default)]
struct Lane {
    /// The lane type, fixed by the first non-null value; `None` while
    /// every row so far is NULL.
    ty: Option<u8>,
    /// Fixed-width values; a STR lane's lengths.
    fixed: Vec<u8>,
    /// A STR lane's string bytes; a MIXED lane's tagged values.
    bytes: Vec<u8>,
    /// The rows that are NULL, ascending (a MIXED lane tags them instead).
    nulls: Vec<u32>,
    rows: u32,
}

impl Lane {
    fn reset(&mut self) {
        self.ty = None;
        self.fixed.clear();
        self.bytes.clear();
        self.nulls.clear();
        self.rows = 0;
    }

    fn push_null(&mut self) {
        match self.ty {
            Some(MIXED) => self.bytes.push(TAG_NULL),
            Some(ty) => {
                self.nulls.push(self.rows);
                self.fixed.extend_from_slice(placeholder(ty));
            }
            None => self.nulls.push(self.rows),
        }
        self.rows += 1;
    }

    /// Make room for a non-null value of type `ty`: fix the lane's type if
    /// only nulls came before, turn it MIXED if it has another. Whether the
    /// value goes in typed.
    fn admit(&mut self, ty: u8) -> bool {
        match self.ty {
            Some(t) if t == ty => true,
            Some(MIXED) => false,
            None => {
                self.ty = Some(ty);
                for _ in 0..self.rows {
                    self.fixed.extend_from_slice(placeholder(ty));
                }
                true
            }
            Some(_) => {
                self.demote();
                false
            }
        }
    }

    /// Rewrite a typed lane as MIXED.
    fn demote(&mut self) {
        let mut tagged =
            Vec::with_capacity(self.fixed.len() + self.bytes.len() + self.rows as usize);
        let mut nulls = self.nulls.iter().peekable();
        let mut str_at = 0usize;
        for r in 0..self.rows as usize {
            let null = nulls.next_if(|&&n| n as usize == r).is_some();
            let value = match self.ty {
                Some(STR) => {
                    let len = u32_at(&self.fixed, r * 4) as usize;
                    let s = &self.bytes[str_at..str_at + len];
                    str_at += len;
                    if !null {
                        tagged.push(TAG_STR);
                        tagged.extend_from_slice(&(len as u32).to_le_bytes());
                        tagged.extend_from_slice(s);
                        continue;
                    }
                    None
                }
                Some(BOOL) => Some(Value::Bool(self.fixed[r] != 0)),
                Some(ty) => {
                    let bits = i64_at(&self.fixed, r * 8);
                    Some(match ty {
                        INT => Value::Int(bits),
                        FLOAT => Value::Float(f64::from_bits(bits as u64)),
                        TS => Value::Ts(Ts(bits)),
                        _ => Value::Interval(Duration(bits)),
                    })
                }
                None => None,
            };
            match value {
                Some(value) if !null => put_tagged(&mut tagged, &value),
                _ => tagged.push(TAG_NULL),
            }
        }
        self.ty = Some(MIXED);
        self.fixed.clear();
        self.nulls.clear();
        self.bytes = tagged;
    }

    fn push_fixed(&mut self, ty: u8, bytes: [u8; 8], value: impl FnOnce() -> Value) {
        if self.admit(ty) {
            self.fixed.extend_from_slice(&bytes);
        } else {
            put_tagged(&mut self.bytes, &value());
        }
        self.rows += 1;
    }

    fn push_bool(&mut self, v: bool) {
        if self.admit(BOOL) {
            self.fixed.push(u8::from(v));
        } else {
            put_tagged(&mut self.bytes, &Value::Bool(v));
        }
        self.rows += 1;
    }

    fn push_str(&mut self, s: &Arc<str>) {
        if self.admit(STR) {
            self.fixed
                .extend_from_slice(&(s.len() as u32).to_le_bytes());
            self.bytes.extend_from_slice(s.as_bytes());
        } else {
            put_tagged(&mut self.bytes, &Value::Str(s.clone()));
        }
        self.rows += 1;
    }

    fn push_value(&mut self, value: &Value) {
        match value {
            Value::Null => self.push_null(),
            Value::Bool(b) => self.push_bool(*b),
            Value::Int(i) => self.push_fixed(INT, i.to_le_bytes(), || value.clone()),
            Value::Float(f) => self.push_fixed(FLOAT, f.to_bits().to_le_bytes(), || value.clone()),
            Value::Ts(t) => self.push_fixed(TS, t.0.to_le_bytes(), || value.clone()),
            Value::Interval(d) => self.push_fixed(INTERVAL, d.0.to_le_bytes(), || value.clone()),
            Value::Str(s) => self.push_str(s),
        }
    }

    fn push_cell(&mut self, column: &Column, at: usize) {
        if column.is_null(at) {
            return self.push_null();
        }
        match column.data() {
            ColumnData::Int { vals, .. } => {
                let v = vals[at];
                self.push_fixed(INT, v.to_le_bytes(), || Value::Int(v));
            }
            ColumnData::Float { vals, .. } => {
                let v = vals[at];
                self.push_fixed(FLOAT, v.to_bits().to_le_bytes(), || Value::Float(v));
            }
            ColumnData::Ts { vals, .. } => {
                let v = vals[at];
                self.push_fixed(TS, v.0.to_le_bytes(), || Value::Ts(v));
            }
            ColumnData::Interval { vals, .. } => {
                let v = vals[at];
                self.push_fixed(INTERVAL, v.0.to_le_bytes(), || Value::Interval(v));
            }
            ColumnData::Bool { vals, .. } => self.push_bool(vals[at]),
            ColumnData::Str { vals, .. } => self.push_str(&vals[at]),
            ColumnData::Mixed(vals) => self.push_value(&vals[at]),
        }
    }

    /// The values at `from..from + n` of `column`: a typed column without
    /// nulls there goes in as one copy of its values, anything else cell
    /// by cell.
    fn push_range(&mut self, column: &Column, from: usize, n: usize) {
        let range = from..from + n;
        fn words<T: Copy>(lane: &mut Lane, ty: u8, vals: &[T], bits: impl Fn(T) -> i64) -> bool {
            if !lane.admit(ty) {
                return false;
            }
            lane.fixed.reserve(vals.len() * 8);
            for &v in vals {
                lane.fixed.extend_from_slice(&bits(v).to_le_bytes());
            }
            lane.rows += vals.len() as u32;
            true
        }
        let done = match column.data() {
            ColumnData::Int { vals, nulls: None } => words(self, INT, &vals[range.clone()], |v| v),
            ColumnData::Float { vals, nulls: None } => {
                words(self, FLOAT, &vals[range.clone()], |v| v.to_bits() as i64)
            }
            ColumnData::Ts { vals, nulls: None } => words(self, TS, &vals[range.clone()], |v| v.0),
            ColumnData::Interval { vals, nulls: None } => {
                words(self, INTERVAL, &vals[range.clone()], |v| v.0)
            }
            _ => false,
        };
        if !done {
            for at in range {
                self.push_cell(column, at);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        let bitmap = match self.ty {
            Some(ty) if ty != MIXED && !self.nulls.is_empty() => (self.rows as usize).div_ceil(8),
            _ => 0,
        };
        let payload = match self.ty {
            None => self.rows as usize,
            Some(_) => self.fixed.len() + self.bytes.len(),
        };
        2 + bitmap + payload
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let Some(ty) = self.ty else {
            // Only nulls: a MIXED lane of NULL tags.
            out.extend_from_slice(&[MIXED, 0]);
            out.resize(out.len() + self.rows as usize, TAG_NULL);
            return;
        };
        out.push(ty);
        if ty == MIXED || self.nulls.is_empty() {
            out.push(0);
        } else {
            out.push(1);
            let start = out.len();
            out.resize(start + (self.rows as usize).div_ceil(8), 0);
            for &r in &self.nulls {
                out[start + r as usize / 8] |= 1 << (r % 8);
            }
        }
        out.extend_from_slice(&self.fixed);
        out.extend_from_slice(&self.bytes);
    }
}

fn placeholder(ty: u8) -> &'static [u8] {
    match ty {
        BOOL => &[0],
        STR => &[0; 4],
        _ => &[0; 8],
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(word)
}

fn i64_at(bytes: &[u8], at: usize) -> i64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    i64::from_le_bytes(word)
}

/// Append `value` as a MIXED lane's tagged value.
fn put_tagged(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => out.extend_from_slice(&[TAG_BOOL, u8::from(*b)]),
        Value::Int(i) => put_tag_word(out, TAG_INT, *i),
        Value::Float(f) => put_tag_word(out, TAG_FLOAT, f.to_bits() as i64),
        Value::Ts(t) => put_tag_word(out, TAG_TS, t.0),
        Value::Interval(d) => put_tag_word(out, TAG_INTERVAL, d.0),
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn put_tag_word(out: &mut Vec<u8>, tag: u8, word: i64) {
    out.push(tag);
    out.extend_from_slice(&word.to_le_bytes());
}

/// Writes one run: cells go in column by column ([`RunWriter::push_cell`],
/// [`RunWriter::push_value`]), then [`RunWriter::end_row`] stamps the row's
/// ptime and diff. The buffers outlive [`RunWriter::reset`], so a writer
/// reused run after run stops allocating once it has seen its largest.
#[derive(Clone, Default)]
pub struct RunWriter {
    lanes: Vec<Lane>,
    /// Run-length ptimes: each distinct consecutive ptime and its count.
    ptimes: Vec<(Ts, u32)>,
    diffs: Vec<i64>,
    /// Whether every diff so far fits in one byte.
    narrow: bool,
}

impl RunWriter {
    /// An empty writer of `arity` columns.
    pub fn new(arity: usize) -> RunWriter {
        let mut writer = RunWriter::default();
        writer.reset(arity);
        writer
    }

    /// Empty the writer and give it `arity` columns, keeping its buffers.
    pub fn reset(&mut self, arity: usize) {
        self.lanes.resize_with(arity, Lane::default);
        self.lanes.iter_mut().for_each(Lane::reset);
        self.ptimes.clear();
        self.diffs.clear();
        self.narrow = true;
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.lanes.len()
    }

    /// Rows ended so far.
    pub fn len(&self) -> usize {
        self.diffs.len()
    }

    /// Whether no row has been ended.
    pub fn is_empty(&self) -> bool {
        self.diffs.is_empty()
    }

    /// The current row's value in column `col`: the value at `at` of
    /// `column`.
    ///
    /// # Panics
    /// Panics if `col` or `at` is out of range.
    pub fn push_cell(&mut self, col: usize, column: &Column, at: usize) {
        self.lanes[col].push_cell(column, at);
    }

    /// The values at `from..from + n` of `column`, in column `col` of the
    /// next `n` rows; [`RunWriter::end_row`] each of them after.
    ///
    /// # Panics
    /// Panics if `col` or the range is out of range.
    pub fn push_range(&mut self, col: usize, column: &Column, from: usize, n: usize) {
        self.lanes[col].push_range(column, from, n);
    }

    /// The current row's value in column `col`.
    ///
    /// # Panics
    /// Panics if `col` is out of range.
    pub fn push_value(&mut self, col: usize, value: &Value) {
        self.lanes[col].push_value(value);
    }

    /// End the current row (a value pushed to every column) at `ptime`
    /// with `diff`.
    pub fn end_row(&mut self, ptime: Ts, diff: i64) {
        match self.ptimes.last_mut() {
            Some((last, count)) if *last == ptime => *count += 1,
            _ => self.ptimes.push((ptime, 1)),
        }
        self.narrow &= i8::try_from(diff).is_ok();
        self.diffs.push(diff);
    }

    /// Bytes [`RunWriter::encode_into`] appends.
    pub fn encoded_len(&self) -> usize {
        let width = if self.narrow { 1 } else { 8 };
        RUN_HEADER
            + self.diffs.len() * width
            + 12 * self.ptimes.len()
            + self.lanes.iter().map(Lane::encoded_len).sum::<usize>()
    }

    /// Append the run's bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.extend_from_slice(&(self.diffs.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.lanes.len() as u16).to_le_bytes());
        if self.narrow {
            out.push(1);
            out.extend(self.diffs.iter().map(|&d| d as i8 as u8));
        } else {
            out.push(8);
            for d in &self.diffs {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.ptimes.len() as u32).to_le_bytes());
        for (ptime, count) in &self.ptimes {
            out.extend_from_slice(&ptime.0.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        for lane in &self.lanes {
            lane.encode_into(out);
        }
    }
}

fn short(what: &str) -> Error {
    Error::exec(format!("malformed run: {what} longer than the bytes left"))
}

/// A bounds-checked little-endian cursor.
struct Input<'a, 'b>(&'b mut &'a [u8]);

impl<'a> Input<'a, '_> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(short(what));
        }
        let (head, tail) = self.0.split_at(n);
        *self.0 = tail;
        Ok(head)
    }

    /// `count` items of `width` bytes each, refused before any is read
    /// when the bytes left cannot hold them.
    fn lane(&mut self, count: usize, width: usize, what: &str) -> Result<&'a [u8]> {
        let n = count.checked_mul(width).ok_or_else(|| short(what))?;
        self.take(n, what)
    }

    fn left(&self) -> usize {
        self.0.len()
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32_at(self.take(4, what)?, 0))
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(i64_at(self.take(8, what)?, 0))
    }

    fn str(&mut self, len: usize) -> Result<Arc<str>> {
        let bytes = self.take(len, "a string")?;
        std::str::from_utf8(bytes)
            .map(Arc::from)
            .map_err(|_| Error::exec("malformed run: a string is not UTF-8"))
    }

    fn tagged(&mut self) -> Result<Value> {
        Ok(match self.u8("a value tag")? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(self.u8("a BOOL value")? != 0),
            TAG_INT => Value::Int(self.i64("an INT value")?),
            TAG_FLOAT => Value::Float(f64::from_bits(self.i64("a FLOAT value")? as u64)),
            TAG_STR => {
                let len = self.u32("a string length")? as usize;
                Value::Str(self.str(len)?)
            }
            TAG_TS => Value::Ts(Ts(self.i64("a TIMESTAMP value")?)),
            TAG_INTERVAL => Value::Interval(Duration(self.i64("an INTERVAL value")?)),
            tag => return Err(Error::exec(format!("malformed run: value tag {tag}"))),
        })
    }
}

fn words(lane: &[u8]) -> impl Iterator<Item = i64> + '_ {
    lane.chunks_exact(8).map(|w| i64_at(w, 0))
}

/// One column of `rows` values.
fn decode_column(input: &mut Input<'_, '_>, rows: usize) -> Result<Column> {
    let ty = input.u8("a column type")?;
    let nulls = match input.u8("a null flag")? {
        0 => None,
        1 if ty != MIXED => {
            let bitmap = input.lane(rows.div_ceil(8), 1, "a null bitmap")?;
            Some(
                (0..rows)
                    .map(|r| bitmap[r / 8] >> (r % 8) & 1 == 1)
                    .collect(),
            )
        }
        flag => return Err(Error::exec(format!("malformed run: null flag {flag}"))),
    };
    let data = match ty {
        INT => ColumnData::Int {
            vals: words(input.lane(rows, 8, "an INT lane")?).collect(),
            nulls,
        },
        FLOAT => ColumnData::Float {
            vals: words(input.lane(rows, 8, "a FLOAT lane")?)
                .map(|w| f64::from_bits(w as u64))
                .collect(),
            nulls,
        },
        TS => ColumnData::Ts {
            vals: words(input.lane(rows, 8, "a TIMESTAMP lane")?)
                .map(Ts)
                .collect(),
            nulls,
        },
        INTERVAL => ColumnData::Interval {
            vals: words(input.lane(rows, 8, "an INTERVAL lane")?)
                .map(Duration)
                .collect(),
            nulls,
        },
        BOOL => ColumnData::Bool {
            vals: input
                .lane(rows, 1, "a BOOL lane")?
                .iter()
                .map(|&b| b != 0)
                .collect(),
            nulls,
        },
        STR => {
            let lens = input.lane(rows, 4, "a string length lane")?;
            let mut vals = Vec::with_capacity(rows);
            for len in lens.chunks_exact(4) {
                vals.push(input.str(u32_at(len, 0) as usize)?);
            }
            ColumnData::Str { vals, nulls }
        }
        MIXED => {
            // Every tagged value takes a byte at least.
            if rows > input.left() {
                return Err(short("a MIXED lane"));
            }
            let mut vals = Vec::with_capacity(rows);
            for _ in 0..rows {
                vals.push(input.tagged()?);
            }
            ColumnData::Mixed(vals)
        }
        ty => return Err(Error::exec(format!("malformed run: column type {ty}"))),
    };
    Ok(Column::new(data))
}

/// Read one run from the front of `input`, advancing it past the run.
/// Errors on bytes that are not a run; never panics, and sizes nothing by
/// a count the bytes left cannot hold.
pub fn decode_run(input: &mut &[u8]) -> Result<ChangeBatch> {
    let mut input = Input(input);
    let rows = input.u32("a run header")? as usize;
    let arity = input.u16("a run header")? as usize;
    let diffs: Vec<i64> = match input.u8("a diff width")? {
        1 => (input.lane(rows, 1, "a diff lane")?.iter())
            .map(|&d| i64::from(d as i8))
            .collect(),
        8 => words(input.lane(rows, 8, "a diff lane")?).collect(),
        width => return Err(Error::exec(format!("malformed run: diff width {width}"))),
    };
    let runs = input.u32("a ptime run count")? as usize;
    let mut ptimes = Vec::with_capacity(rows);
    let mut clock = Ts::MIN;
    for run in input.lane(runs, 12, "a ptime lane")?.chunks_exact(12) {
        let count = u32_at(run, 8) as usize;
        if count > rows - ptimes.len() {
            return Err(Error::exec("malformed run: ptime runs overrun the rows"));
        }
        clock = clock.max(Ts(i64_at(run, 0)));
        ptimes.extend(std::iter::repeat_n(clock, count));
    }
    if ptimes.len() != rows {
        return Err(Error::exec(
            "malformed run: ptime runs fall short of the rows",
        ));
    }
    // Every column header takes two bytes.
    if arity > input.left() / 2 {
        return Err(short("the column headers"));
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        columns.push(decode_column(&mut input, rows)?);
    }
    Ok(ChangeBatch::new_dense(columns, diffs, ptimes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::Change;
    use onesql_types::row;

    fn roundtrip(changes: &[(Ts, Change)]) -> Vec<(Ts, Change)> {
        let mut writer = RunWriter::new(changes[0].1.row.arity());
        for (ptime, change) in changes {
            for (c, value) in change.row.values().iter().enumerate() {
                writer.push_value(c, value);
            }
            writer.end_row(*ptime, change.diff);
        }
        let mut bytes = Vec::new();
        writer.encode_into(&mut bytes);
        assert_eq!(bytes.len(), writer.encoded_len());
        let mut input = bytes.as_slice();
        let batch = decode_run(&mut input).unwrap();
        assert!(input.is_empty());
        (0..batch.len()).map(|i| batch.timed_change(i)).collect()
    }

    #[test]
    fn lane_codec_roundtrip() {
        let changes = vec![
            (
                Ts(5),
                Change::with_diff(
                    row!(Value::Null, true, -42i64, 1.5f64, "héllo\nworld", Ts(-7)),
                    -3,
                ),
            ),
            (
                Ts(5),
                Change::insert(row!(
                    Value::Int(1),
                    false,
                    Value::Null,
                    f64::NAN,
                    "",
                    Value::Null
                )),
            ),
            (
                Ts(9),
                Change::with_diff(
                    row!(
                        "mixed",
                        Value::Null,
                        i64::MIN,
                        -0.0f64,
                        Value::Null,
                        Ts(i64::MAX)
                    ),
                    1_000,
                ),
            ),
        ];
        assert_eq!(roundtrip(&changes), changes);
    }

    #[test]
    fn ptimes_come_back_at_their_running_max() {
        let changes: Vec<(Ts, Change)> = [3, 1, 4]
            .into_iter()
            .map(|t| (Ts(t), Change::insert(row!(t))))
            .collect();
        let ptimes: Vec<Ts> = roundtrip(&changes).into_iter().map(|(t, _)| t).collect();
        assert_eq!(ptimes, [Ts(3), Ts(3), Ts(4)]);
    }

    #[test]
    fn a_run_claiming_more_rows_than_its_bytes_is_refused() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.push(8);
        bytes.extend_from_slice(&[0; 16]);
        let err = decode_run(&mut bytes.as_slice()).unwrap_err().to_string();
        assert!(
            err.contains("a diff lane longer than the bytes left"),
            "{err}"
        );
    }
}
