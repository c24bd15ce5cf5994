//! A minimal JSON reader/writer for the JSON-lines connectors.
//!
//! Hand-rolled because the build environment has no serde_json; supports
//! exactly what typed flat records need — one-level objects with string,
//! number, boolean, and null values (nested containers are parsed but
//! rejected by the record layer).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use onesql_types::{DataType, Error, Result, Row, Schema, Value};

use crate::text;

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
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a [`Value`] as a JSON fragment. Timestamps and intervals are
/// integer milliseconds (lossless; the schema recovers the type on read).
pub fn push_value(out: &mut String, value: &Value) {
    // Writing into a `String` cannot fail.
    let _ = match value {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Int(i) => write!(out, "{i}"),
        Value::Float(f) if f.is_finite() => write!(out, "{f}"),
        // JSON has no infinities/NaN; encode as string.
        Value::Float(f) => write!(out, "\"{f}\""),
        Value::Str(s) => {
            push_string(out, s);
            Ok(())
        }
        Value::Ts(t) => write!(out, "{}", t.millis()),
        Value::Interval(d) => write!(out, "{}", d.millis()),
    };
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
        (Json::Number(n), DataType::Int) => Ok(Value::Int(*n as i64)),
        (Json::Number(n), DataType::Float) => Ok(Value::Float(*n)),
        (Json::Number(n), DataType::Timestamp) => Ok(Value::Ts(onesql_types::Ts(*n as i64))),
        (Json::Number(n), DataType::Interval) => {
            Ok(Value::Interval(onesql_types::Duration(*n as i64)))
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

/// Append `values` as a one-line JSON object keyed by the schema's field
/// names (the two are zipped, so a changelog sink chains its metadata
/// values after a row's without building the wider row).
pub fn push_row<'a>(
    out: &mut String,
    schema: &Schema,
    values: impl IntoIterator<Item = &'a Value>,
) {
    out.push('{');
    for (i, (field, value)) in schema.fields().iter().zip(values).enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(out, &field.name);
        out.push(':');
        push_value(out, value);
    }
    out.push('}');
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
        let mut line = String::new();
        push_row(&mut line, &s, r.values());
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
    fn large_integers_round_trip_exactly() {
        // Above 2^53: corrupted if routed through f64.
        let s = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("t", DataType::Timestamp),
        ]);
        let big = (1i64 << 53) + 1;
        let r = row!(big, Ts(i64::MAX - 7));
        let mut line = String::new();
        push_row(&mut line, &s, r.values());
        assert_eq!(json_to_row(&line, &s).unwrap(), r);
        // Float syntax still parses as float.
        let f = json_to_row(r#"{"id": 5, "t": 9}"#, &s).unwrap();
        assert_eq!(f, row!(5i64, Ts(9)));
    }
}
