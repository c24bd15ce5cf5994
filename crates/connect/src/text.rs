//! Schema-driven text conversion shared by the file connectors.
//!
//! Values render with their natural `Display` forms (timestamps as `8:07`
//! clock strings, intervals compactly) and parse back under schema
//! guidance, so a file written by a sink round-trips through a source with
//! the same schema.
//!
//! Writing is one byte encoder per value type ([`push_int`],
//! [`push_clock`], [`push_float`], [`push_bool`], [`push_interval`],
//! [`push_csv_str`]), called alike for a boxed [`Value`] and for a typed
//! [`Column`] slot, into a sink's reused byte buffer.

use std::io::Write as _;

use onesql_types::{
    digits, Column, ColumnBuilder, ColumnData, DataType, Duration, Error, Result, Row, Schema, Ts,
    Value,
};

/// Parse one text field into a [`Value`] of the given type. Empty text is
/// NULL (except for strings, where it is the empty string).
pub fn parse_value(text: &str, data_type: DataType) -> Result<Value> {
    if text.is_empty() && data_type != DataType::String {
        return Ok(Value::Null);
    }
    match data_type {
        DataType::String => Ok(Value::str(text)),
        DataType::Int => text
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| Error::exec(format!("cannot parse '{text}' as BIGINT"))),
        DataType::Float => text
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::exec(format!("cannot parse '{text}' as DOUBLE"))),
        DataType::Bool => match text.trim().to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Bool(true)),
            "false" | "f" | "0" => Ok(Value::Bool(false)),
            _ => Err(Error::exec(format!("cannot parse '{text}' as BOOLEAN"))),
        },
        DataType::Timestamp => parse_ts(text).map(Value::Ts),
        DataType::Interval => parse_interval(text).map(Value::Interval),
        DataType::Null => Ok(Value::Null),
    }
}

/// Parse one text field directly into a column builder, skipping the
/// boxed [`Value`] for numeric and temporal fields (the columnar CSV
/// path). Returns the timestamp when the field parsed as a non-null
/// TIMESTAMP, so callers can fill an event-time lane without re-reading
/// the column. Errors are byte-identical to [`parse_value`]'s.
pub fn parse_field_into(
    text: &str,
    data_type: DataType,
    b: &mut ColumnBuilder,
) -> Result<Option<Ts>> {
    if text.is_empty() && data_type != DataType::String {
        b.push_null();
        return Ok(None);
    }
    match data_type {
        DataType::Int => b.push_int(
            text.trim()
                .parse::<i64>()
                .map_err(|_| Error::exec(format!("cannot parse '{text}' as BIGINT")))?,
        ),
        DataType::Float => b.push_float(
            text.trim()
                .parse::<f64>()
                .map_err(|_| Error::exec(format!("cannot parse '{text}' as DOUBLE")))?,
        ),
        DataType::Timestamp => {
            let t = parse_ts(text)?;
            b.push_ts(t);
            return Ok(Some(t));
        }
        DataType::Interval => b.push_interval(parse_interval(text)?),
        other => b.push(parse_value(text, other)?),
    }
    Ok(None)
}

/// Parse a timestamp: `H:MM`, `H:MM:SS.mmm` clock strings (the engine's
/// own rendering) or raw integer milliseconds.
pub fn parse_ts(text: &str) -> Result<Ts> {
    let text = text.trim();
    match text {
        "+inf" => return Ok(Ts::MAX),
        "-inf" => return Ok(Ts::MIN),
        _ => {}
    }
    if let Ok(ms) = text.parse::<i64>() {
        return Ok(Ts(ms));
    }
    let (sign, body) = match text.strip_prefix('-') {
        Some(rest) => (-1i64, rest),
        None => (1, text),
    };
    let parts: Vec<&str> = body.split(':').collect();
    let err = || Error::exec(format!("cannot parse '{text}' as TIMESTAMP"));
    match parts.as_slice() {
        [h, m] => {
            let hours: i64 = h.parse().map_err(|_| err())?;
            let minutes: i64 = m.parse().map_err(|_| err())?;
            Ok(Ts(sign * (Ts::hm(hours, minutes).millis())))
        }
        [h, m, s] => {
            let hours: i64 = h.parse().map_err(|_| err())?;
            let minutes: i64 = m.parse().map_err(|_| err())?;
            let (secs, millis) = match s.split_once('.') {
                Some((s, ms)) => {
                    if !ms.bytes().all(|b| b.is_ascii_digit()) {
                        return Err(err());
                    }
                    // Right-pad to 3 digits: "5" -> 500ms.
                    let padded = format!("{ms:0<3}");
                    (
                        s.parse::<i64>().map_err(|_| err())?,
                        padded[..3].parse::<i64>().map_err(|_| err())?,
                    )
                }
                None => (s.parse::<i64>().map_err(|_| err())?, 0),
            };
            Ok(Ts(sign
                * (Ts::hm(hours, minutes).millis()
                    + secs * 1_000
                    + millis)))
        }
        _ => Err(err()),
    }
}

/// Parse an interval: raw integer milliseconds or a compact suffix form
/// (`250ms`, `5s`, `10m`, `2h`).
pub fn parse_interval(text: &str) -> Result<Duration> {
    let text = text.trim();
    if let Ok(ms) = text.parse::<i64>() {
        return Ok(Duration(ms));
    }
    let err = || Error::exec(format!("cannot parse '{text}' as INTERVAL"));
    let (num, scale) = if let Some(n) = text.strip_suffix("ms") {
        (n, 1)
    } else if let Some(n) = text.strip_suffix('s') {
        (n, 1_000)
    } else if let Some(n) = text.strip_suffix('m') {
        (n, 60_000)
    } else if let Some(n) = text.strip_suffix('h') {
        (n, 3_600_000)
    } else {
        return Err(err());
    };
    let n: i64 = num.trim().parse().map_err(|_| err())?;
    Ok(Duration(n * scale))
}

/// Append a BIGINT.
#[inline]
pub fn push_int(out: &mut Vec<u8>, i: i64) {
    out.extend_from_slice(digits::i64(i).as_bytes());
}

/// Append an unsigned count (an `EMIT STREAM` `ver`).
#[inline]
pub fn push_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(digits::u64(n).as_bytes());
}

/// Append a DOUBLE, as its `Display` writes it.
#[inline]
pub fn push_float(out: &mut Vec<u8>, f: f64) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{f}");
}

/// Append a BOOLEAN as `true` / `false`.
#[inline]
pub fn push_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Append a TIMESTAMP as a clock string (`8:07`, `8:07:05.250`).
#[inline]
pub fn push_clock(out: &mut Vec<u8>, ts: Ts) {
    out.extend_from_slice(digits::clock(ts).as_bytes());
}

/// Append an INTERVAL compactly (`10m`, `250ms`).
#[inline]
pub fn push_interval(out: &mut Vec<u8>, d: Duration) {
    out.extend_from_slice(digits::interval(d).as_bytes());
}

/// Append a string as one CSV field: wrapped in quotes, its quotes
/// doubled, when it holds a comma, a quote or a newline; as it is
/// otherwise (nearly always).
#[inline]
pub fn push_csv_str(out: &mut Vec<u8>, s: &str) {
    if !s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n')) {
        out.extend_from_slice(s.as_bytes());
        return;
    }
    out.push(b'"');
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            out.extend_from_slice(b"\"\"");
        }
        out.extend_from_slice(part.as_bytes());
    }
    out.push(b'"');
}

/// Append a value's text-field form to `out`: what its `Display` writes
/// (timestamps as clock strings, intervals compactly), NULL as nothing,
/// a string unquoted.
#[inline]
pub fn push_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => {}
        Value::Bool(b) => push_bool(out, *b),
        Value::Int(i) => push_int(out, *i),
        Value::Float(f) => push_float(out, *f),
        Value::Str(s) => out.extend_from_slice(s.as_bytes()),
        Value::Ts(t) => push_clock(out, *t),
        Value::Interval(d) => push_interval(out, *d),
    }
}

/// Append a value as one CSV field: [`push_value`], a string quoted by
/// [`push_csv_str`].
#[inline]
pub fn push_csv_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Str(s) => push_csv_str(out, s),
        other => push_value(out, other),
    }
}

/// Whether slot `i` of a typed column is NULL.
#[inline]
pub(crate) fn null_at(nulls: &Option<Vec<bool>>, i: usize) -> bool {
    nulls.as_ref().is_some_and(|mask| mask[i])
}

/// Append slot `i` of `column` as one CSV field, exactly as
/// [`push_csv_value`] writes the value it holds.
///
/// # Panics
/// Panics if `i` is out of range.
#[inline]
pub fn push_csv_column(out: &mut Vec<u8>, column: &Column, i: usize) {
    match column.data() {
        ColumnData::Int { vals, nulls } if !null_at(nulls, i) => push_int(out, vals[i]),
        ColumnData::Float { vals, nulls } if !null_at(nulls, i) => push_float(out, vals[i]),
        ColumnData::Bool { vals, nulls } if !null_at(nulls, i) => push_bool(out, vals[i]),
        ColumnData::Ts { vals, nulls } if !null_at(nulls, i) => push_clock(out, vals[i]),
        ColumnData::Interval { vals, nulls } if !null_at(nulls, i) => push_interval(out, vals[i]),
        ColumnData::Str { vals, nulls } if !null_at(nulls, i) => push_csv_str(out, &vals[i]),
        ColumnData::Mixed(vals) => push_csv_value(out, &vals[i]),
        _ => {}
    }
}

/// Parse a full delimited record against a schema (fields in order).
pub fn parse_record(fields: &[String], schema: &Schema) -> Result<Row> {
    if fields.len() != schema.arity() {
        return Err(Error::exec(format!(
            "record has {} fields, schema '{}' expects {}",
            fields.len(),
            schema,
            schema.arity()
        )));
    }
    let mut values = Vec::with_capacity(fields.len());
    for (text, field) in fields.iter().zip(schema.fields()) {
        values.push(parse_value(text, field.data_type)?);
    }
    Ok(Row::new(values))
}

/// Split one CSV line into unescaped fields (RFC-4180 quoting: fields may
/// be wrapped in `"` with embedded quotes doubled).
pub fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if field.is_empty() => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut field));
            }
            c => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// True when every quote in the line is closed — i.e. the line is a
/// complete CSV record. Records whose quoted fields embed newlines span
/// several physical lines; readers join lines until this holds. (Bare
/// quotes inside unquoted fields are invalid CSV and not produced by
/// [`push_csv_row`].)
pub fn csv_quotes_balanced(line: &str) -> bool {
    line.chars().filter(|&c| c == '"').count() % 2 == 0
}

/// Append a row as one CSV record (no line terminator).
pub fn push_csv_row(out: &mut Vec<u8>, row: &Row) {
    for (i, value) in row.values().iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_csv_value(out, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::row;

    #[test]
    fn value_round_trips_through_text() {
        let cases = [
            (Value::Int(42), DataType::Int),
            (Value::Float(2.5), DataType::Float),
            (Value::Bool(true), DataType::Bool),
            (Value::str("hello, \"world\""), DataType::String),
            (Value::Ts(Ts::hm(8, 7)), DataType::Timestamp),
            (
                Value::Ts(Ts(8 * 3_600_000 + 7 * 60_000 + 5_250)),
                DataType::Timestamp,
            ),
            (
                Value::Interval(Duration::from_minutes(10)),
                DataType::Interval,
            ),
            (Value::Null, DataType::Int),
        ];
        for (value, dt) in cases {
            let mut text = Vec::new();
            push_value(&mut text, &value);
            let text = String::from_utf8(text).unwrap();
            let back = parse_value(&text, dt).unwrap();
            assert_eq!(back, value, "via {text:?}");
        }
    }

    #[test]
    fn csv_quoting_round_trips() {
        let r = row!("a,b", "say \"hi\"", 7i64);
        let mut line = Vec::new();
        push_csv_row(&mut line, &r);
        let line = String::from_utf8(line).unwrap();
        assert_eq!(line, "\"a,b\",\"say \"\"hi\"\"\",7");
        let fields = split_csv_line(&line);
        assert_eq!(fields, vec!["a,b", "say \"hi\"", "7"]);
    }

    #[test]
    fn timestamps_parse_from_clock_and_millis() {
        assert_eq!(parse_ts("8:07").unwrap(), Ts::hm(8, 7));
        assert_eq!(parse_ts("485000").unwrap(), Ts(485000));
        assert_eq!(parse_ts("0:00:01.500").unwrap(), Ts(1_500));
        assert_eq!(parse_ts("+inf").unwrap(), Ts::MAX);
        assert!(parse_ts("nope").is_err());
    }

    #[test]
    fn intervals_parse_from_suffix_forms() {
        assert_eq!(parse_interval("10m").unwrap(), Duration::from_minutes(10));
        assert_eq!(parse_interval("250ms").unwrap(), Duration(250));
        assert_eq!(parse_interval("5s").unwrap(), Duration(5_000));
        assert_eq!(parse_interval("2h").unwrap(), Duration(7_200_000));
        assert_eq!(parse_interval("1234").unwrap(), Duration(1234));
    }
}
