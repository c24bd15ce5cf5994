//! The file sink's columnar path against the line renderer it stands
//! beside: `write_batch` over a `StreamBatch` writes the bytes the row
//! renderer wrote for the same rows — byte for byte, header included — and
//! the bytes the sink's own row `write` writes, in CSV with and without a
//! header and JSON lines, in changelog and appends mode. An appends-mode sink that meets an `undo` fails at the
//! same row with the same error, the rows before it written.
//!
//! The oracle (`mod old`) is that renderer as it was before the sinks got
//! byte encoders: `core::fmt` for numbers, the clock written a digit at a
//! time, strings quoted after the fact.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use onesql_connect::{CsvSinkMode, Sink, TxnFileSink};
use onesql_exec::{render_stream, StreamRenderer, StreamRow, STREAM_META_COLUMNS};
use onesql_tvr::{Change, ChangeBatch, Changelog, TimedChange};
use onesql_types::{DataType, Duration, Field, Row, Schema, SchemaRef, Ts, Value};
use proptest::prelude::*;

/// The line renderer the columnar path replaced, for `String`s.
mod old {
    use std::fmt::{self, Write as _};

    use super::*;

    fn write_digits(out: &mut String, mut n: u64, width: usize) -> fmt::Result {
        let mut digits = [b'0'; 20];
        let mut first = digits.len();
        loop {
            first -= 1;
            digits[first] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        let first = first.min(digits.len().saturating_sub(width));
        digits[first..]
            .iter()
            .try_for_each(|&digit| out.write_char(digit as char))
    }

    pub fn write_clock(ts: Ts, out: &mut String) {
        if ts == Ts::MAX {
            return out.push_str("+inf");
        }
        if ts == Ts::MIN {
            return out.push_str("-inf");
        }
        if ts.0 < 0 {
            out.push('-');
        }
        let ms = ts.0.unsigned_abs();
        let _ = write_digits(out, ms / 3_600_000, 1);
        out.push(':');
        let _ = write_digits(out, ms % 3_600_000 / 60_000, 2);
        let rem_ms = ms % 60_000;
        if rem_ms != 0 {
            out.push(':');
            let _ = write_digits(out, rem_ms / 1_000, 2);
            out.push('.');
            let _ = write_digits(out, rem_ms % 1_000, 3);
        }
    }

    fn write_interval(d: Duration, out: &mut String) {
        let ms = d.0;
        let _ = if ms % 3_600_000 == 0 {
            write!(out, "{}h", ms / 3_600_000)
        } else if ms % 60_000 == 0 {
            write!(out, "{}m", ms / 60_000)
        } else if ms % 1_000 == 0 {
            write!(out, "{}s", ms / 1_000)
        } else {
            write!(out, "{ms}ms")
        };
    }

    pub fn push_value(out: &mut String, value: &Value) {
        let _ = match value {
            Value::Null => Ok(()),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(v) => write!(out, "{v}"),
            Value::Str(s) => out.write_str(s),
            Value::Ts(t) => {
                write_clock(*t, out);
                Ok(())
            }
            Value::Interval(d) => {
                write_interval(*d, out);
                Ok(())
            }
        };
    }

    fn quote_csv_field(out: &mut String, start: usize) {
        let needs_quoting = |b: &u8| matches!(b, b',' | b'"' | b'\n');
        if !out.as_bytes()[start..].iter().any(needs_quoting) {
            return;
        }
        out.insert(start, '"');
        let mut scanned = start + 1;
        while let Some(quote) = out[scanned..].find('"') {
            out.insert(scanned + quote, '"');
            scanned += quote + 2;
        }
        out.push('"');
    }

    pub fn push_csv_row(out: &mut String, row: &Row) {
        for (i, value) in row.values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let start = out.len();
            push_value(out, value);
            if matches!(value, Value::Str(_)) {
                quote_csv_field(out, start);
            }
        }
    }

    fn push_string(out: &mut String, s: &str) {
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

    fn push_json_value(out: &mut String, value: &Value) {
        let _ = match value {
            Value::Null => out.write_str("null"),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(f) if f.is_finite() => write!(out, "{f}"),
            Value::Float(f) => write!(out, "\"{f}\""),
            Value::Str(s) => {
                push_string(out, s);
                Ok(())
            }
            Value::Ts(t) => write!(out, "{}", t.millis()),
            Value::Interval(d) => write!(out, "{}", d.millis()),
        };
    }

    fn push_json_row<'a>(
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
            push_json_value(out, value);
        }
        out.push('}');
    }

    /// The file the old renderer wrote for `rows` through a sink named
    /// `name`, and the error it stopped at.
    pub fn render(
        name: &str,
        schema: &Schema,
        json: bool,
        header: bool,
        mode: CsvSinkMode,
        rows: &[StreamRow],
    ) -> (String, Option<String>) {
        let changelog = mode == CsvSinkMode::Changelog;
        let mut out = String::new();
        if header && !json {
            let meta = if changelog {
                &STREAM_META_COLUMNS[..]
            } else {
                &[]
            };
            let names = schema.names().into_iter().chain(meta.iter().copied());
            push_csv_row(&mut out, &Row::from_values(names.map(Value::str)));
            out.push('\n');
        }
        let mut fields = schema.fields().to_vec();
        if changelog {
            fields.push(Field::new(STREAM_META_COLUMNS[0], DataType::Bool));
            fields.push(Field::new(STREAM_META_COLUMNS[1], DataType::Timestamp));
            fields.push(Field::new(STREAM_META_COLUMNS[2], DataType::Int));
        }
        let json_schema = Schema::new(fields);
        for sr in rows {
            if !changelog && sr.undo {
                let refused = format!(
                    "execution error: {name}: retraction reached an appends-mode sink; use \
                     CsvSinkMode::Changelog or a watermark-gated query"
                );
                return (out, Some(refused));
            }
            if json {
                let meta = [
                    Value::Bool(sr.undo),
                    Value::Ts(sr.ptime),
                    Value::Int(sr.ver as i64),
                ];
                let meta = if changelog { &meta[..] } else { &[] };
                push_json_row(&mut out, &json_schema, sr.row.values().iter().chain(meta));
            } else {
                push_csv_row(&mut out, &sr.row);
                if changelog {
                    out.push_str(if sr.undo { ",true," } else { ",false," });
                    write_clock(sr.ptime, &mut out);
                    let _ = write!(out, ",{}", sr.ver);
                }
            }
            out.push('\n');
        }
        (out, None)
    }
}

fn arb_ts() -> impl Strategy<Value = Ts> {
    prop_oneof![
        any::<i64>().prop_map(Ts),
        // Whole minutes, both signs; sub-minute remainders.
        (-100_000i64..100_000).prop_map(Ts::from_minutes),
        (-200_000i64..200_000).prop_map(Ts),
        Just(Ts::MAX),
        Just(Ts::MIN),
        Just(Ts(i64::MIN + 1)),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    let chars = [
        ',', '"', '\n', '\r', '\t', '\\', '\u{1}', 'a', ' ', 'é', '7',
    ];
    let one = (0..chars.len()).prop_map(move |i| chars[i]);
    prop::collection::vec(one, 0..6).prop_map(|cs| cs.into_iter().collect())
}

fn arb_value() -> impl Strategy<Value = Value> {
    let floats = [
        0.0,
        -0.0,
        0.1,
        -2.5,
        8580.0,
        1e21,
        1e-7,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    prop_oneof![
        Just(Value::Null),
        prop::bool::ANY.prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (0..floats.len()).prop_map(move |i| Value::Float(floats[i])),
        any::<i64>().prop_map(|i| Value::Float(i as f64 / 1024.0)),
        arb_text().prop_map(Value::str),
        arb_ts().prop_map(Value::Ts),
        any::<i64>().prop_map(|ms| Value::Interval(Duration(ms))),
        (-50_000i64..50_000).prop_map(|s| Value::Interval(Duration(s * 1_000))),
    ]
}

/// A column of one kind, as a typed lane holds it, or of any value.
fn arb_column(len: usize) -> impl Strategy<Value = Vec<Value>> {
    let of = |kind: usize| -> Box<dyn Fn(Value) -> Value> {
        Box::new(move |v: Value| match (kind, v) {
            (0, v) => v,
            (_, Value::Null) => Value::Null,
            (1, v) => Value::Int(v.as_int().unwrap_or(7)),
            (2, Value::Float(f)) => Value::Float(f),
            (2, _) => Value::Float(-0.0),
            (3, Value::Ts(t)) => Value::Ts(t),
            (3, _) => Value::Ts(Ts::MIN),
            (_, Value::Str(s)) => Value::Str(s),
            (_, _) => Value::str("a,\"b\"\nc"),
        })
    };
    (0usize..5, prop::collection::vec(arb_value(), len..len + 1))
        .prop_map(move |(kind, values)| values.into_iter().map(of(kind)).collect())
}

fn schema() -> SchemaRef {
    let names = ["plain", "quo\"ted", "com,ma"];
    let field = |name: &&str| Field::new(*name, DataType::String);
    Arc::new(Schema::new(names.iter().map(field).collect()))
}

/// One log entry: its row, `|diff|`, whether it retracts, the part
/// (worker) it goes to, and whether the part keeps it as a row.
type Entry = (Row, i64, bool, usize, bool);

/// The parts the entries make, each pushed in ptime order, and the
/// entries merged in `(ptime, part)` order — the order a flush releases.
fn parts(entries: &[Entry], ptimes: &[Ts]) -> (Vec<Changelog>, Vec<TimedChange>) {
    let mut parts = vec![Changelog::new(), Changelog::new()];
    let mut timed: Vec<(Ts, usize, usize, TimedChange)> = Vec::new();
    for (i, ((row, size, undo, part, as_row), &ptime)) in entries.iter().zip(ptimes).enumerate() {
        let diff = if *undo { -size } else { *size };
        let change = Change::with_diff(row.clone(), diff);
        if *as_row {
            parts[*part].push_row(ptime, change.clone()).unwrap();
        } else {
            parts[*part].push(ptime, &change).unwrap();
        }
        timed.push((ptime, *part, i, TimedChange { ptime, change }));
    }
    timed.sort_by_key(|(ptime, part, i, _)| (*ptime, *part, *i));
    (parts, timed.into_iter().map(|(.., entry)| entry).collect())
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("onesql_columnar_sink_bytes");
    std::fs::create_dir_all(&dir).unwrap();
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{name}-{}-{case}", std::process::id()))
}

/// Every file sink format, by how its bytes are framed: `(kind, json,
/// header)`.
const SINKS: [(&str, bool, bool); 3] = [
    ("csv", false, true),
    ("csv-headerless", false, false),
    ("json", true, false),
];

fn open(kind: &str, path: &std::path::Path, mode: CsvSinkMode) -> (Box<dyn Sink>, String) {
    let sink = match kind {
        "csv" => TxnFileSink::new(path, mode, true),
        "csv-headerless" => TxnFileSink::new(path, mode, false),
        _ => TxnFileSink::json_lines(path, mode),
    };
    (Box::new(sink), format!("file:{}", path.display()))
}

/// Write through a fresh sink of `kind`; the file's bytes and the error,
/// which names the sink `{name}`.
fn sunk(
    kind: &str,
    mode: CsvSinkMode,
    write: impl FnOnce(&mut dyn Sink) -> onesql_types::Result<()>,
) -> (String, Option<String>) {
    let path = scratch(kind);
    let (mut sink, name) = open(kind, &path, mode);
    sink.bind(schema()).unwrap();
    let refused = write(&mut *sink).err();
    let refused = refused.map(|e| e.to_string().replace(&name, "{name}"));
    sink.flush().unwrap();
    let bytes = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    (bytes, refused)
}

/// `write_batch` against the old renderer and the row `write`, for every
/// sink and mode, over the parts of `entries`.
fn assert_same_bytes(entries: &[Entry], ptimes: &[Ts], grouping: &[usize]) {
    let (mut parts, merged) = parts(entries, ptimes);
    let mut renderer = StreamRenderer::new(grouping.to_vec());
    let batch = renderer.render_batch(&mut parts).unwrap();
    let rows: Vec<StreamRow> = batch.stream_rows().collect();
    // The batch is the rendering of the merged entries.
    assert_eq!(rows, render_stream(&merged, grouping).unwrap());
    for (kind, json, header) in SINKS {
        for mode in [CsvSinkMode::Changelog, CsvSinkMode::Appends] {
            let columns = sunk(kind, mode, |sink| sink.write_batch(&batch));
            let by_row = sunk(kind, mode, |sink| sink.write(&rows));
            let expected = old::render("{name}", &schema(), json, header, mode, &rows);
            assert_eq!(columns, expected, "{kind} {mode:?}");
            assert_eq!(by_row, expected, "{kind} {mode:?}");
        }
    }
}

fn arb_entries(undo: impl Strategy<Value = bool> + 'static) -> impl Strategy<Value = Vec<Entry>> {
    let rows = (arb_column(24), arb_column(24), arb_column(24)).prop_map(|(a, b, c)| {
        (0..24)
            .map(|i| Row::new(vec![a[i].clone(), b[i].clone(), c[i].clone()]))
            .collect::<Vec<Row>>()
    });
    let shape = prop::collection::vec((1i64..4, undo, 0usize..2, prop::bool::ANY), 24..25);
    (rows, shape, 0usize..25).prop_map(|(rows, shape, len)| {
        let entries = rows.into_iter().zip(shape);
        let entries =
            entries.map(|(row, (size, undo, part, as_row))| (row, size, undo, part, as_row));
        entries.take(len).collect()
    })
}

fn arb_ptimes() -> impl Strategy<Value = Vec<Ts>> {
    prop::collection::vec(arb_ts(), 24..25).prop_map(|mut ptimes| {
        ptimes.sort();
        ptimes
    })
}

proptest! {
    #[test]
    fn changelog_rows_write_the_old_renderers_bytes(
        entries in arb_entries(prop::bool::ANY),
        ptimes in arb_ptimes(),
        grouping in 0usize..3,
    ) {
        assert_same_bytes(&entries, &ptimes, [&[][..], &[0], &[0, 2]][grouping]);
    }

    #[test]
    fn appends_fail_at_the_one_undo_with_the_rows_before_it_written(
        entries in arb_entries(Just(false)),
        ptimes in arb_ptimes(),
        undo_at in 0usize..30,
    ) {
        let mut entries = entries;
        // At a random row, or (past the end) at none.
        if let Some(entry) = entries.get_mut(undo_at) {
            entry.2 = true;
        }
        assert_same_bytes(&entries, &ptimes, &[1]);
    }
}

/// Segments the changelog takes over from a batch, and the two views a
/// cut inside one leaves, render as the rows they hold.
#[test]
fn whole_batches_and_cut_segments_write_the_old_renderers_bytes() {
    let row = |i: i64| {
        let note = if i % 3 == 0 { "a,\"b\"" } else { "plain" };
        let at = if i % 7 == 0 {
            Value::Null
        } else {
            Value::Ts(Ts(i * 61_001 - 300_000))
        };
        Row::new(vec![Value::Int(i), Value::str(note), at])
    };
    let run = |from: i64, to: i64, diff: i64| -> Vec<(Ts, Change)> {
        (from..to)
            .map(|i| {
                (
                    Ts(i / 10),
                    Change::with_diff(row(i), if i % 11 == 0 { -diff } else { diff }),
                )
            })
            .collect()
    };
    let mut log = Changelog::new();
    log.push_batch(&ChangeBatch::from_changes(&run(0, 600, 1)).unwrap())
        .unwrap();
    let filtered = ChangeBatch::from_changes(&run(600, 1_400, 2)).unwrap();
    let every_other: Vec<u32> = (0..800).step_by(2).collect();
    log.push_batch(&filtered.select_logical(&every_other))
        .unwrap();
    assert_eq!(log.segments().len(), 2);
    // Cut inside each segment: the first part is released, the rest held.
    let mut released = log.split_before(Ts(30));
    let held_on = log.split_before(Ts(100));
    let entries: Vec<TimedChange> = released.iter().chain(held_on.iter()).collect();
    let mut parts = [std::mem::take(&mut released), held_on];
    // One part after the other: the second starts where the first ends.
    let batch = StreamRenderer::new(vec![2])
        .render_batch(&mut parts)
        .unwrap();
    let rows: Vec<StreamRow> = batch.stream_rows().collect();
    assert_eq!(rows, render_stream(&entries, &[2]).unwrap());
    for (kind, json, header) in SINKS {
        let mode = CsvSinkMode::Changelog;
        let columns = sunk(kind, mode, |sink| sink.write_batch(&batch));
        let expected = old::render("{name}", &schema(), json, header, mode, &rows);
        assert_eq!(columns, expected, "{kind}");
        assert_eq!(expected.1, None);
    }
}
