//! Shared helpers for the vectorized (batch-at-a-time) operator path.
//!
//! The batch path must be *byte-identical* to feeding the same changes one
//! at a time (the row oracle; docs/VECTORIZED.md has the whole argument).
//! Two mechanisms every operator shares, both working on whole source
//! events ([`ChangeBatch::event_range`]) so that the executor records all
//! outputs of one event or none:
//!
//! 1. **The oracle, one event at a time** ([`process_event`]): an event's
//!    elements go through [`Operator::process`] into one output group
//!    stamped with its ptime. [`process_batch_rowwise`] — the default
//!    `process_batch` — replays a batch that way, so any operator without a
//!    batch override stays exact for free, and the executor forwards a
//!    child's per-event output the same way.
//!
//! 2. **Split-and-repair** ([`split_and_repair`], used by the kernel-backed
//!    overrides): column kernels may discover a row error in a different
//!    cross-row order than the oracle would. The events before the failing
//!    row's re-run vectorized (recursively), that event goes through the
//!    oracle — reproducing its exact error — and the rest resumes
//!    vectorized, converging on the oracle's first failing row.
//!
//! Error contract for `process_batch` (all implementations): when it returns
//! `Err`, `out` contains exactly the outputs attributable to events *before*
//! the failing row's — the failing event contributes nothing, matching the
//! oracle, which drops a failing event's outputs entirely — followed by a
//! [`BatchOut::failed_at`] the failing event's ptime, where the oracle's
//! clock stood when it failed.

use onesql_tvr::{BatchOut, ChangeBatch, Element};
use onesql_types::{Result, Ts};

use crate::operator::Operator;

/// Replay `batch` through `op.process` one source event at a time
/// ([`process_event`]).
pub fn process_batch_rowwise<O: Operator + ?Sized>(
    op: &mut O,
    port: usize,
    batch: &ChangeBatch,
    out: &mut Vec<BatchOut>,
) -> Result<()> {
    let mut next = 0;
    while next < batch.len() {
        let event = batch.event_range(next);
        next = event.end;
        let ts = batch.ptime(event.start);
        let elems = event.map(|i| Element::Data(batch.change(i)));
        process_event(op, port, ts, elems, out)?;
    }
    Ok(())
}

/// Process the elements of one source event, fed at `ts`, through
/// `op.process` — the per-row oracle — into one [`BatchOut::Rows`].
///
/// On error the event's partial outputs are discarded (the oracle does not
/// record a failing event's outputs), `out` is told when it failed
/// ([`BatchOut::failed_at`]) and the error propagates.
pub fn process_event<O: Operator + ?Sized>(
    op: &mut O,
    port: usize,
    ts: Ts,
    elems: impl IntoIterator<Item = Element>,
    out: &mut Vec<BatchOut>,
) -> Result<()> {
    let mut tmp = Vec::new();
    for elem in elems {
        if let Err(e) = op.process(port, elem, ts, &mut tmp) {
            out.push(BatchOut::failed_at(ts));
            return Err(e);
        }
    }
    if !tmp.is_empty() {
        out.push(BatchOut::Rows(ts, tmp));
    }
    Ok(())
}

/// Repair a batch override that found an error at logical row `row`: the
/// events before that row's re-run through `op.process_batch`, the row's
/// event goes through the per-row oracle, and the rest resumes vectorized.
pub fn split_and_repair<O: Operator + ?Sized>(
    op: &mut O,
    port: usize,
    batch: &ChangeBatch,
    row: usize,
    out: &mut Vec<BatchOut>,
) -> Result<()> {
    let event = batch.event_range(row);
    let before = batch.slice(0, event.start);
    let after = batch.slice(event.end, batch.len());
    op.process_batch(port, &before, out)?;
    process_batch_rowwise(op, port, &batch.slice(event.start, event.end), out)?;
    op.process_batch(port, &after, out)
}
