//! The lane codec (`onesql_tvr::lanes`): a run encoded and decoded comes
//! back as it went in, whichever way its cells were pushed, and a run
//! whose counts lie about its bytes is refused before anything is sized
//! by them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use onesql_tvr::lanes::{cell_len, decode_run, range_len, run_bound, value_len, RunWriter};
use onesql_tvr::Change;
use onesql_types::{Column, Duration, Row, Ts, Value};
use proptest::prelude::*;

struct Largest;

thread_local! {
    /// The largest allocation this thread asked for while watched.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a
// const-initialised thread-local without a destructor, which does not
// allocate, so nothing re-enters the allocator.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().map(|m| m.max(layout.size()))));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The largest allocation `f` makes on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|l| l.set(Some(0)));
    let out = f();
    let largest = LARGEST.with(|l| l.replace(None)).unwrap_or(0);
    (largest, out)
}

#[test]
fn a_run_claiming_u32_max_rows_over_short_lanes_allocates_nothing_for_them() {
    // Four INT columns, u32::MAX rows, an i64 diff lane: then 64 bytes.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&4u16.to_le_bytes());
    bytes.push(8);
    bytes.extend_from_slice(&[1; 64]);
    let (largest, decoded) = largest_allocation(|| decode_run(&mut bytes.as_slice()));
    let err = decoded.unwrap_err().to_string();
    assert!(err.contains("longer than the bytes left"), "{err}");
    assert!(largest < 1024, "allocated {largest} bytes for a lie");

    // A narrow diff lane that fits, then a ptime lane that does not: the
    // diffs are sized by bytes that are there, the ptime runs by none.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&64u32.to_le_bytes());
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.push(1);
    bytes.extend_from_slice(&[1; 64]);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0; 16]);
    let (largest, decoded) = largest_allocation(|| decode_run(&mut bytes.as_slice()));
    let err = decoded.unwrap_err().to_string();
    assert!(err.contains("a ptime lane longer"), "{err}");
    assert!(largest <= 64 * 8, "allocated {largest} bytes");
}

/// One column's kind: the type its non-null values share, or mixed.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Int,
    Float,
    Bool,
    Str,
    Ts,
    Interval,
    Mixed,
}

const KINDS: [Kind; 7] = [
    Kind::Int,
    Kind::Float,
    Kind::Bool,
    Kind::Str,
    Kind::Ts,
    Kind::Interval,
    Kind::Mixed,
];

const STRINGS: [&str; 6] = ["", "a", "a,b", "say \"hi\"", "two\nlines", "é€😀"];

fn value(kind: Kind, word: u64) -> Value {
    let kind = match kind {
        Kind::Mixed => KINDS[(word % 6) as usize],
        kind => kind,
    };
    let w = word >> 3;
    match kind {
        Kind::Int => Value::Int(w as i64 - (1 << 59)),
        Kind::Float => Value::Float(
            [1.5, f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 0.1][(w % 6) as usize],
        ),
        Kind::Bool => Value::Bool(w.is_multiple_of(2)),
        Kind::Str => Value::Str(Arc::from(STRINGS[(w % 6) as usize])),
        Kind::Ts => Value::Ts(Ts(w as i64 % 100_000)),
        Kind::Interval => Value::Interval(Duration(-(w as i64 % 1_000))),
        Kind::Mixed => unreachable!("resolved above"),
    }
}

/// Rows of `kinds` from `words`: a cell is NULL when its word is a
/// multiple of `nulls`.
fn rows(kinds: &[Kind], words: &[u64], nulls: u64) -> Vec<Row> {
    let width = kinds.len().max(1);
    (words.chunks_exact(width))
        .map(|row| {
            let cells = kinds.iter().zip(row).map(|(&kind, &word)| {
                if word.is_multiple_of(nulls) {
                    Value::Null
                } else {
                    value(kind, word)
                }
            });
            Row::from_values(cells)
        })
        .collect()
}

fn decode_all(bytes: &[u8]) -> Vec<(Ts, Change)> {
    let mut input = bytes;
    let batch = decode_run(&mut input).unwrap();
    assert!(input.is_empty(), "{} bytes left over", input.len());
    (0..batch.len()).map(|i| batch.timed_change(i)).collect()
}

proptest! {
    /// A run of any arity, types, nulls, ptimes and diffs comes back from
    /// its bytes as it went in — pushed value by value, cell by cell from
    /// columns, or as column ranges — with each ptime raised to the
    /// running maximum; and it takes no more bytes than `run_bound` says,
    /// counted by value, by cell or by range.
    #[test]
    fn encoding_then_decoding_a_run_returns_it(
        kinds in proptest::collection::vec(0usize..7, 0..5),
        words in proptest::collection::vec(any::<u64>(), 0..120),
        steps in proptest::collection::vec(0i64..3, 0..40),
        diffs in proptest::collection::vec(-3i64..4, 0..40),
        wide in any::<bool>(),
        nulls in 1u64..8,
    ) {
        let kinds: Vec<Kind> = kinds.into_iter().map(|k| KINDS[k]).collect();
        let rows = rows(&kinds, &words, nulls);
        let n = if kinds.is_empty() { words.len().min(40) } else { rows.len() };
        let rows: Vec<Row> = (0..n)
            .map(|i| rows.get(i).cloned().unwrap_or_else(|| Row::from_values([])))
            .collect();
        // Ptimes wander, falling now and then; diffs are small or not.
        let mut ptime = 1_000i64;
        let mut changes = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let step = steps.get(i % steps.len().max(1)).copied().unwrap_or(1);
            ptime += if step == 0 && i % 7 == 3 { -2 } else { step };
            let mut diff = diffs.get(i % diffs.len().max(1)).copied().unwrap_or(1);
            if wide && i % 3 == 0 {
                diff *= 1 << 40;
            }
            changes.push((Ts(ptime), Change::with_diff(row.clone(), diff)));
        }
        let mut clock = Ts::MIN;
        let expected: Vec<(Ts, Change)> = changes
            .iter()
            .map(|(t, c)| {
                clock = clock.max(*t);
                (clock, c.clone())
            })
            .collect();

        // Value by value.
        let mut writer = RunWriter::new(kinds.len());
        for (t, c) in &changes {
            for (col, v) in c.row.values().iter().enumerate() {
                writer.push_value(col, v);
            }
            writer.end_row(*t, c.diff);
        }
        let mut by_value = Vec::new();
        writer.encode_into(&mut by_value);
        prop_assert_eq!(by_value.len(), writer.encoded_len());
        prop_assert_eq!(decode_all(&by_value), expected.clone());
        let values = rows.iter().flat_map(|r| r.values()).map(value_len).sum();
        prop_assert!(by_value.len() <= run_bound(kinds.len(), n, values));

        // From columns: cell by cell, and as ranges.
        let columns: Vec<Column> = (0..kinds.len())
            .map(|col| Column::from_values(rows.iter().map(|r| r.values()[col].clone()).collect()))
            .collect();
        let mut cells = RunWriter::new(kinds.len());
        for (i, (t, c)) in expected.iter().enumerate() {
            for (col, column) in columns.iter().enumerate() {
                cells.push_cell(col, column, i);
            }
            cells.end_row(*t, c.diff);
        }
        let mut by_cell = Vec::new();
        cells.encode_into(&mut by_cell);
        prop_assert_eq!(decode_all(&by_cell), expected.clone());
        let values = (0..n)
            .flat_map(|i| columns.iter().map(move |column| cell_len(column, i)))
            .sum();
        prop_assert!(by_cell.len() <= run_bound(kinds.len(), n, values));

        let mut ranges = RunWriter::new(kinds.len());
        let half = n / 2;
        for (from, len) in [(0, half), (half, n - half)] {
            for (col, column) in columns.iter().enumerate() {
                ranges.push_range(col, column, from, len);
            }
            for (t, c) in &expected[from..from + len] {
                ranges.end_row(*t, c.diff);
            }
        }
        let mut by_range = Vec::new();
        ranges.encode_into(&mut by_range);
        prop_assert_eq!(decode_all(&by_range), expected);
        let values = columns.iter().map(|column| range_len(column, 0, n)).sum();
        prop_assert!(by_range.len() <= run_bound(kinds.len(), n, values));
    }
}
