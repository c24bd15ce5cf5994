//! Allocation guard for the emit path: rendering output rows to sink bytes
//! and numbering their versions costs a constant number of heap
//! allocations per call, not some per row.
//!
//! A counting global allocator tallies allocations per thread, so the
//! tests of this binary can run in parallel without seeing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use onesql_connect::{CsvFileSink, CsvSinkMode, Sink, TxnFileSink};
use onesql_exec::{StreamRenderer, StreamRow};
use onesql_tvr::{Change, Changelog, TimedChange};
use onesql_types::{row, DataType, Field, Schema, SchemaRef, Ts};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised thread-local without a destructor, which allocates
// nothing and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const ROWS: i64 = 4_096;

/// Every kind of field: integers, a float, timestamps with and without a
/// sub-minute part, and strings that do and do not need quoting.
fn rows() -> Vec<StreamRow> {
    (0..ROWS)
        .map(|i| StreamRow {
            row: row!(
                i,
                i as f64 * 0.908,
                Ts(28_800_000 + i * 7),
                if i % 3 == 0 {
                    "plain"
                } else {
                    "a \"quoted\", one"
                }
            ),
            undo: i % 5 == 0,
            ptime: Ts::from_minutes(480 + i),
            ver: i as u64,
        })
        .collect()
}

fn schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("eur", DataType::Float),
        Field::event_time("at"),
        Field::new("note", DataType::String),
    ]))
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("onesql_emit_allocs");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.csv", std::process::id()))
}

/// The first write grows the sink's buffer to a round's size; from then
/// on a write of `ROWS` rows allocates (next to) nothing.
fn assert_writes_without_allocating(mut sink: impl Sink, path: &std::path::Path) {
    let rows = rows();
    sink.bind(schema()).unwrap();
    sink.write(&rows).unwrap();
    let allocations = allocations_in(|| sink.write(&rows).unwrap());
    assert!(allocations < 8, "{allocations} allocations for {ROWS} rows");
    sink.flush().unwrap();
    let text = std::fs::read_to_string(path).unwrap();
    assert_eq!(text.lines().count() as i64, 1 + 2 * ROWS);
    assert!(text.contains("\n1,0.908,8:00:00.007,\"a \"\"quoted\"\", one\",false,8:01,1\n"));
}

/// [`assert_writes_without_allocating`] for `write_batch`: the same rows
/// as columns, `ver` numbered over one grouping so that it counts the
/// rows as [`rows`] does.
fn assert_writes_batches_without_allocating(mut sink: impl Sink, path: &std::path::Path) {
    let mut log = Changelog::new();
    for sr in rows() {
        let change = Change::with_diff(sr.row, if sr.undo { -1 } else { 1 });
        log.push(sr.ptime, &change).unwrap();
    }
    let mut parts = [log];
    let batch = StreamRenderer::new(vec![])
        .render_batch(&mut parts)
        .unwrap();
    sink.bind(schema()).unwrap();
    sink.write_batch(&batch).unwrap();
    let allocations = allocations_in(|| sink.write_batch(&batch).unwrap());
    assert!(allocations < 8, "{allocations} allocations for {ROWS} rows");
    sink.flush().unwrap();
    let text = std::fs::read_to_string(path).unwrap();
    assert_eq!(text.lines().count() as i64, 1 + 2 * ROWS);
    assert!(text.contains("\n1,0.908,8:00:00.007,\"a \"\"quoted\"\", one\",false,8:01,1\n"));
}

#[test]
fn txn_file_sink_write_batch_allocates_per_call_not_per_row() {
    let path = scratch("txn-batch");
    let sink = TxnFileSink::new(&path, CsvSinkMode::Changelog, true);
    assert_writes_batches_without_allocating(sink, &path);
}

#[test]
fn csv_file_sink_write_batch_allocates_per_call_not_per_row() {
    let path = scratch("csv-batch");
    let sink = CsvFileSink::new(&path, CsvSinkMode::Changelog).unwrap();
    assert_writes_batches_without_allocating(sink, &path);
}

#[test]
fn txn_file_sink_write_allocates_per_call_not_per_row() {
    let path = scratch("txn");
    let sink = TxnFileSink::new(&path, CsvSinkMode::Changelog, true);
    assert_writes_without_allocating(sink, &path);
}

#[test]
fn csv_file_sink_write_allocates_per_call_not_per_row() {
    let path = scratch("csv");
    let sink = CsvFileSink::new(&path, CsvSinkMode::Changelog).unwrap();
    assert_writes_without_allocating(sink, &path);
}

#[test]
fn stream_renderer_allocates_only_on_a_groupings_first_sight() {
    // One grouping column (a projection's event time), two (a window's
    // bounds), none (one global grouping).
    for grouping_cols in [vec![2], vec![0, 2], vec![]] {
        let entries: Vec<TimedChange> = rows()
            .into_iter()
            .map(|sr| TimedChange {
                ptime: sr.ptime,
                change: Change::insert(sr.row),
            })
            .collect();
        let mut renderer = StreamRenderer::new(grouping_cols.clone());
        let mut out = Vec::with_capacity(2 * entries.len());
        let mut render_all = |out: &mut Vec<StreamRow>| {
            for entry in &entries {
                renderer.render_into(entry, out).unwrap();
            }
        };
        let first_sight = allocations_in(|| render_all(&mut out));
        let seen = allocations_in(|| render_all(&mut out));
        assert_eq!(seen, 0, "grouping {grouping_cols:?}");
        // One TIMESTAMP value is its own key: only the counter table grows.
        // Other groupings may also build a key row each.
        let bound = match grouping_cols[..] {
            [_] => u64::from((ROWS as u64).next_power_of_two().ilog2()) + 4,
            _ => 2 * ROWS as u64,
        };
        assert!(
            first_sight <= bound,
            "grouping {grouping_cols:?}: {first_sight}"
        );
        assert_eq!(out.len(), 2 * entries.len());
        assert_eq!(
            out[entries.len()].ver,
            if grouping_cols.is_empty() {
                ROWS as u64
            } else {
                1
            }
        );
    }
}
