//! Shared helpers for the vectorized (batch-at-a-time) operator path.
//!
//! The batch path must be *byte-identical* to feeding the same changes one
//! at a time (the row oracle). Three mechanisms make that hold:
//!
//! 1. **Row-wise fallback** ([`process_batch_rowwise`]): replays a batch
//!    through [`Operator::process`] row by row, the rows of one source event
//!    into one output group stamped with that event's ptime. Since per-row
//!    processing in row order *is* the oracle, any operator without a batch
//!    override stays exact for free.
//!
//! 2. **Split-and-repair** ([`split_and_repair`], used by the kernel-backed
//!    overrides in `simple.rs`/`window.rs`/`aggregate.rs`): column kernels
//!    may discover a row error in a different cross-row order than the
//!    oracle would. When a kernel reports an error at row `k`, the operator
//!    re-runs the rows before `k`'s event vectorized (recursively), that
//!    event through the per-row oracle — which either reproduces the
//!    oracle's exact error or, if the oracle actually succeeds on it (the
//!    kernel merely *found* a different failing row first… impossible for
//!    row `k` itself, but cheap to handle), keeps going with the suffix.
//!    This loop converges to the oracle's first failing row and its exact
//!    error message.
//!
//! 3. **Event atomicity**: the executor records all outputs of one source
//!    event or none. A batch may hold several rows of one event (a hopping
//!    window's assignments, an aggregate's retract/insert pair), told apart
//!    by [`ChangeBatch::event_range`]; both mechanisms above work on whole
//!    events, so a failure on an event's second row takes its first row's
//!    output with it, as the oracle's does.
//!
//! Error contract for `process_batch` (all implementations): when it returns
//! `Err`, `out` contains exactly the outputs attributable to events *before*
//! the failing row's — the failing event contributes nothing, matching the
//! oracle, which drops a failing event's outputs entirely — followed by a
//! [`BatchOut::failed_at`] the failing event's ptime, where the oracle's
//! clock stood when it failed.

use std::ops::Range;

use onesql_tvr::{BatchOut, ChangeBatch, Element};
use onesql_types::Result;

use crate::operator::Operator;

/// Replay `batch` through `op.process` one row at a time (the oracle),
/// wrapping each source event's outputs as one [`BatchOut::Rows`] stamped
/// with that event's ptime.
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
        process_event_rowwise(op, port, batch, event, out)?;
    }
    Ok(())
}

/// Process the logical rows `event` of `batch` — all the rows of one source
/// event — through the per-row oracle.
///
/// On error the event's partial outputs are discarded (the oracle does not
/// record a failing event's outputs), `out` is told when it failed
/// ([`BatchOut::failed_at`]) and the error propagates.
pub fn process_event_rowwise<O: Operator + ?Sized>(
    op: &mut O,
    port: usize,
    batch: &ChangeBatch,
    event: Range<usize>,
    out: &mut Vec<BatchOut>,
) -> Result<()> {
    let ts = batch.ptime(event.start);
    let mut tmp = Vec::new();
    for i in event {
        if let Err(e) = op.process(port, Element::Data(batch.change(i)), ts, &mut tmp) {
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
    process_event_rowwise(op, port, batch, event, out)?;
    op.process_batch(port, &after, out)
}
