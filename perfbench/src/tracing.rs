//! The traced run's span plumbing: bench-owned spans around calls into
//! the engine, draining the engine's flight recorder, self times, and the
//! Chrome-trace file.
//!
//! Tracing is switched with `SET trace = 'on' | 'off'` like any user
//! would; spans are read back through `observe::recorder()`.

use std::collections::BTreeMap;
use std::path::Path;

use onesql_core::observe::{self, TraceRecord, TraceSpan};

/// Run `f` inside a bench-owned span. An engine root span opened on this
/// thread inside `f` (`driver.round`, `driver.finish`) nests under it.
/// With tracing off the span is inert: one relaxed atomic load.
pub fn spanned<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = TraceSpan::root(name);
    f()
}

/// Rounds between drains of the flight recorder. A round records a few
/// dozen spans at most, so the 65 536-record ring cannot wrap in between,
/// while the ring scan a drain costs stays off the per-round path.
const DRAIN_EVERY: u32 = 256;

/// Collects every span of one traced run in memory.
#[derive(Debug)]
pub struct Tracer {
    cursor: u64,
    since_drain: u32,
    records: Vec<TraceRecord>,
}

/// Run a one-statement script that only flips the process-wide recorder.
fn set_trace(mode: &str) {
    onesql_connect::session()
        .execute_script(&format!("SET trace = '{mode}';"))
        .expect("SET trace");
}

impl Tracer {
    /// Turn the flight recorder on and start collecting after whatever it
    /// already holds.
    pub fn start() -> Tracer {
        set_trace("on");
        let cursor = observe::recorder()
            .records()
            .last()
            .map(|r| r.seq)
            .unwrap_or(0);
        Tracer {
            cursor,
            since_drain: 0,
            records: Vec::new(),
        }
    }

    /// Count one round; every [`DRAIN_EVERY`] rounds, move what the
    /// flight recorder holds into memory.
    pub fn tick(&mut self) {
        self.since_drain += 1;
        if self.since_drain >= DRAIN_EVERY {
            self.drain();
        }
    }

    fn drain(&mut self) {
        let fresh = observe::recorder().since(self.cursor);
        if let Some(last) = fresh.last() {
            self.cursor = last.seq;
        }
        self.records.extend(fresh);
        self.since_drain = 0;
    }

    /// Turn tracing off; every span recorded since [`Tracer::start`].
    pub fn stop(mut self) -> Vec<TraceRecord> {
        self.drain();
        set_trace("off");
        self.records
    }
}

/// Microseconds of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time per span name, in microseconds: each span's duration minus
/// the part of it its children (on any thread) cover.
pub fn self_micros_by_name(records: &[TraceRecord]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.parent != 0) {
        children
            .entry(r.parent)
            .or_default()
            .push((r.start_micros, r.end_micros));
    }
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in records {
        let dur = r.end_micros.saturating_sub(r.start_micros);
        let child_cover = children
            .get_mut(&r.span)
            .map(|c| covered(r.start_micros, r.end_micros, c))
            .unwrap_or(0);
        *by_name.entry(r.name).or_default() += dur.saturating_sub(child_cover);
    }
    by_name
}

/// Write `records` as Chrome trace-event JSON (open in `chrome://tracing`
/// or Perfetto).
pub fn write_chrome_trace(records: &[TraceRecord], path: &Path) {
    std::fs::write(path, observe::chrome_trace_json(records))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(span: u64, parent: u64, name: &'static str, start: u64, end: u64) -> TraceRecord {
        TraceRecord {
            seq: 0,
            span,
            parent,
            name,
            pipeline: String::new(),
            worker: -1,
            partition: -1,
            start_micros: start,
            end_micros: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 60) of a [0, 100) parent.
        let records = vec![
            rec(1, 0, "parent", 0, 100),
            rec(2, 1, "child", 10, 50),
            rec(3, 1, "child", 30, 60),
        ];
        let by_name = self_micros_by_name(&records);
        assert_eq!(by_name["parent"], 50);
        assert_eq!(by_name["child"], 70);
    }
}
