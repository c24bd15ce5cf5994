//! A minimal JSON reader/writer for the JSON-lines connectors.
//!
//! Hand-rolled because the build environment has no serde_json; supports
//! exactly what typed flat records need — one-level objects with string,
//! number, boolean, and null values (nested containers are parsed but
//! rejected by the record layer).

use std::collections::BTreeMap;
use std::io::Write as _;

use onesql_types::{Column, ColumnData, DataType, Error, Result, Row, Schema, Value};

use crate::text::{self, null_at};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer-syntax number that fits `i64` (kept exact — BIGINT and
    /// millisecond timestamps above 2^53 must not round through f64).
    Int(i64),
    /// Any other JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (key order normalized).
    Object(BTreeMap<String, Json>),
}

/// Parse one JSON document.
pub fn parse(input: &str) -> Result<Json> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::exec(format!(
            "trailing characters at byte {} in JSON document",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::exec(format!(
                "expected '{}' at byte {} in JSON document",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::exec(format!(
                "unexpected content at byte {} in JSON document",
                self.pos
            ))),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::exec(format!(
                "invalid literal at byte {} in JSON document",
                self.pos
            )))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // The scan above admits only ASCII bytes, so the slice is UTF-8.
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        // Integer syntax parses exactly; everything else through f64.
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| Error::exec(format!("invalid number '{text}' in JSON document")))
    }

    /// Read four hex digits (the payload of a `\u` escape).
    fn hex4(&mut self) -> Result<u32> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| Error::exec("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| Error::exec("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::exec("unterminated JSON string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::exec("unterminated JSON escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Standard JSON escapes non-BMP characters as
                            // UTF-16 surrogate pairs; combine them.
                            let code = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(Error::exec(
                                        "unpaired \\u surrogate in JSON string",
                                    ));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error::exec(
                                        "invalid \\u low surrogate in JSON string",
                                    ));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::exec("invalid \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(Error::exec(format!(
                                "invalid JSON escape '\\{}'",
                                other as char
                            )))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::exec("invalid UTF-8 in JSON document"))?;
                    let Some(c) = rest.chars().next() else {
                        return Err(Error::exec("unterminated JSON string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(Error::exec("expected ',' or ']' in JSON array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(Error::exec("expected ',' or '}' in JSON object")),
            }
        }
    }
}

/// Append `s`, escaped and quoted, as a JSON string.
pub fn push_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escaped: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            // Every byte of a multi-byte character is >= 0x80.
            b if b < 0x20 => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[plain..i]);
        plain = i + 1;
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.extend_from_slice(escaped);
        }
    }
    out.extend_from_slice(&bytes[plain..]);
    out.push(b'"');
}

/// Append a DOUBLE: a JSON number when finite; JSON has no infinities or
/// NaN, so those are strings.
#[inline]
pub fn push_float(out: &mut Vec<u8>, f: f64) {
    // Writing into a `Vec` cannot fail.
    let _ = if f.is_finite() {
        write!(out, "{f}")
    } else {
        write!(out, "\"{f}\"")
    };
}

/// Append a [`Value`] as a JSON fragment. Timestamps and intervals are
/// integer milliseconds (lossless; the schema recovers the type on read).
#[inline]
pub fn push_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => text::push_bool(out, *b),
        Value::Int(i) => text::push_int(out, *i),
        Value::Float(f) => push_float(out, *f),
        Value::Str(s) => push_string(out, s),
        Value::Ts(t) => text::push_int(out, t.millis()),
        Value::Interval(d) => text::push_int(out, d.millis()),
    }
}

/// Append slot `i` of `column` as a JSON fragment, exactly as
/// [`push_value`] writes the value it holds.
///
/// # Panics
/// Panics if `i` is out of range.
#[inline]
pub fn push_column(out: &mut Vec<u8>, column: &Column, i: usize) {
    match column.data() {
        ColumnData::Int { vals, nulls } if !null_at(nulls, i) => text::push_int(out, vals[i]),
        ColumnData::Float { vals, nulls } if !null_at(nulls, i) => push_float(out, vals[i]),
        ColumnData::Bool { vals, nulls } if !null_at(nulls, i) => text::push_bool(out, vals[i]),
        ColumnData::Ts { vals, nulls } if !null_at(nulls, i) => {
            text::push_int(out, vals[i].millis())
        }
        ColumnData::Interval { vals, nulls } if !null_at(nulls, i) => {
            text::push_int(out, vals[i].millis())
        }
        ColumnData::Str { vals, nulls } if !null_at(nulls, i) => push_string(out, &vals[i]),
        ColumnData::Mixed(vals) => push_value(out, &vals[i]),
        _ => out.extend_from_slice(b"null"),
    }
}

/// Each field's key as an object writes it, `"name":`, escaped once.
pub fn object_keys(schema: &Schema) -> Vec<Vec<u8>> {
    let key = |field: &onesql_types::Field| {
        let mut key = Vec::with_capacity(field.name.len() + 3);
        push_string(&mut key, &field.name);
        key.push(b':');
        key
    };
    schema.fields().iter().map(key).collect()
}

/// A one-line JSON object being written field by field, each under the
/// next of its keys; once the keys run out, further fields are dropped.
pub struct Object<'a> {
    out: &'a mut Vec<u8>,
    keys: std::slice::Iter<'a, Vec<u8>>,
    first: bool,
}

impl<'a> Object<'a> {
    /// Open an object whose fields take `keys` in order.
    pub fn open(out: &'a mut Vec<u8>, keys: &'a [Vec<u8>]) -> Object<'a> {
        out.push(b'{');
        Object {
            out,
            keys: keys.iter(),
            first: true,
        }
    }

    /// The buffer to write the next field's value into, after its key;
    /// `None` once every key is taken.
    pub fn field(&mut self) -> Option<&mut Vec<u8>> {
        let key = self.keys.next()?;
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.out.extend_from_slice(key);
        Some(self.out)
    }

    /// Close the object.
    pub fn close(self) {
        self.out.push(b'}');
    }
}

/// Convert a parsed JSON scalar to a [`Value`] of the schema's type.
pub fn json_to_value(json: &Json, data_type: DataType) -> Result<Value> {
    match (json, data_type) {
        (Json::Null, _) => Ok(Value::Null),
        (Json::Bool(b), DataType::Bool) => Ok(Value::Bool(*b)),
        (Json::Int(i), DataType::Int) => Ok(Value::Int(*i)),
        (Json::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
        (Json::Int(i), DataType::Timestamp) => Ok(Value::Ts(onesql_types::Ts(*i))),
        (Json::Int(i), DataType::Interval) => Ok(Value::Interval(onesql_types::Duration(*i))),
        (Json::Number(n), DataType::Float) => Ok(Value::Float(*n)),
        (Json::Number(n), DataType::Int) => whole(*n, data_type).map(Value::Int),
        (Json::Number(n), DataType::Timestamp) => {
            whole(*n, data_type).map(|ms| Value::Ts(onesql_types::Ts(ms)))
        }
        (Json::Number(n), DataType::Interval) => {
            whole(*n, data_type).map(|ms| Value::Interval(onesql_types::Duration(ms)))
        }
        (Json::String(s), DataType::String) => Ok(Value::str(s.as_str())),
        (Json::String(s), DataType::Timestamp) => text::parse_ts(s).map(Value::Ts),
        (Json::String(s), DataType::Interval) => text::parse_interval(s).map(Value::Interval),
        (Json::String(s), DataType::Float) => s
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::exec(format!("cannot read '{s}' as DOUBLE"))),
        (j, t) => Err(Error::type_error(format!(
            "JSON value {j:?} does not fit column type {t}"
        ))),
    }
}

/// A non-integer-syntax JSON number (`3.0`, `1e3`) read into an integer
/// column: exact when it is a whole number in `i64`'s range, an error that
/// names the column type otherwise, never truncated or saturated.
fn whole(n: f64, data_type: DataType) -> Result<i64> {
    // -2^63 and 2^63 are exact doubles; every double in between that has
    // no fraction is an i64.
    const LIMIT: f64 = 9_223_372_036_854_775_808.0;
    if n.fract() == 0.0 && (-LIMIT..LIMIT).contains(&n) {
        return Ok(n as i64);
    }
    Err(Error::type_error(format!(
        "JSON number {n} does not fit column type {data_type}"
    )))
}

/// Append `values` as a one-line JSON object keyed by the schema's field
/// names (the two are zipped, so a changelog sink chains its metadata
/// values after a row's without building the wider row).
pub fn push_row<'a>(
    out: &mut Vec<u8>,
    schema: &Schema,
    values: impl IntoIterator<Item = &'a Value>,
) {
    let keys = object_keys(schema);
    let mut object = Object::open(out, &keys);
    for value in values {
        let Some(out) = object.field() else {
            break;
        };
        push_value(out, value);
    }
    object.close();
}

/// Parse a one-line JSON object into a row matching the schema. Missing
/// keys become NULL; unknown keys error (they signal schema drift).
pub fn json_to_row(line: &str, schema: &Schema) -> Result<Row> {
    let Json::Object(map) = parse(line)? else {
        return Err(Error::exec("JSON line is not an object"));
    };
    for key in map.keys() {
        if !schema.fields().iter().any(|f| f.name == *key) {
            return Err(Error::exec(format!("JSON key '{key}' not in schema")));
        }
    }
    let mut values = Vec::with_capacity(schema.arity());
    for field in schema.fields() {
        match map.get(&field.name) {
            Some(j) => values.push(json_to_value(j, field.data_type)?),
            None => values.push(Value::Null),
        }
    }
    Ok(Row::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::{row, Field, Ts};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::event_time("bidtime"),
            Field::new("price", DataType::Int),
            Field::new("item", DataType::String),
        ])
    }

    #[test]
    fn row_round_trips() {
        let s = schema();
        let r = row!(Ts::hm(8, 7), 42i64, "tea \"pot\", etc.");
        let mut line = Vec::new();
        push_row(&mut line, &s, r.values());
        let line = String::from_utf8(line).unwrap();
        assert_eq!(json_to_row(&line, &s).unwrap(), r);
    }

    #[test]
    fn missing_key_is_null_unknown_key_errors() {
        let s = schema();
        let r = json_to_row(r#"{"bidtime": 100, "price": 5}"#, &s).unwrap();
        assert_eq!(r, row!(Ts(100), 5i64, Value::Null));
        assert!(json_to_row(r#"{"bidtime": 1, "price": 2, "extra": 3}"#, &s).is_err());
    }

    #[test]
    fn parser_handles_nesting_escapes_and_ws() {
        let v = parse(r#" {"a": [1, 2.5, {"b": "x\n\"yA"}], "c": null} "#).unwrap();
        let Json::Object(map) = v else { panic!() };
        assert_eq!(map["c"], Json::Null);
        let Json::Array(items) = &map["a"] else {
            panic!()
        };
        assert_eq!(items[1], Json::Number(2.5));
        let Json::Object(inner) = &items[2] else {
            panic!()
        };
        assert_eq!(inner["b"], Json::String("x\n\"yA".to_string()));
    }

    #[test]
    fn malformed_documents_error() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("{} extra").is_err());
    }

    #[test]
    fn clock_strings_accepted_for_timestamps() {
        let s = Schema::new(vec![Field::event_time("t")]);
        let r = json_to_row(r#"{"t": "8:07"}"#, &s).unwrap();
        assert_eq!(r, row!(Ts::hm(8, 7)));
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_surrogates_error() {
        // Python json.dumps-style escaping of non-BMP characters.
        let v = parse(r#""\ud83d\ude00 ok""#).unwrap();
        assert_eq!(v, Json::String("😀 ok".to_string()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\ud83dA""#).is_err(), "bad low surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn numbers_read_into_integer_columns_exactly_or_not_at_all() {
        let s = Schema::new(vec![
            Field::new("n", DataType::Int),
            Field::new("t", DataType::Timestamp),
            Field::new("d", DataType::Interval),
        ]);
        let read = |text: &str| json_to_row(&format!(r#"{{"n": {text}}}"#), &s);
        assert_eq!(read("3.0").unwrap(), row!(3i64, Value::Null, Value::Null));
        assert_eq!(
            read("1e3").unwrap(),
            row!(1000i64, Value::Null, Value::Null)
        );
        let min = read("-9223372036854775808").unwrap();
        assert_eq!(min, row!(i64::MIN, Value::Null, Value::Null));
        for bad in ["1.5", "9223372036854775808", "-1e19", "1e300"] {
            let err = read(bad).unwrap_err().to_string();
            assert!(err.contains("BIGINT"), "{bad}: {err}");
        }
        for column in ["t", "d"] {
            let err = json_to_row(&format!(r#"{{"{column}": 1.5}}"#), &s).unwrap_err();
            let named = if column == "t" {
                "TIMESTAMP"
            } else {
                "INTERVAL"
            };
            assert!(err.to_string().contains(named), "{err}");
        }
        let t = json_to_row(r#"{"t": 2e3, "d": -6e4}"#, &s).unwrap();
        assert_eq!(
            t,
            row!(Value::Null, Ts(2_000), onesql_types::Duration(-60_000))
        );
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        // Above 2^53: corrupted if routed through f64.
        let s = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("t", DataType::Timestamp),
        ]);
        let big = (1i64 << 53) + 1;
        let r = row!(big, Ts(i64::MAX - 7));
        let mut line = Vec::new();
        push_row(&mut line, &s, r.values());
        let line = String::from_utf8(line).unwrap();
        assert_eq!(json_to_row(&line, &s).unwrap(), r);
        // Float syntax still parses as float.
        let f = json_to_row(r#"{"id": 5, "t": 9}"#, &s).unwrap();
        assert_eq!(f, row!(5i64, Ts(9)));
    }
}
