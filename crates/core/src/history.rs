//! Observable pipeline history: the tap the pipeline driver records into.
//!
//! Black-box consistency checking (the approach `onesql-checker` borrows
//! from snapshot-isolation checkers) needs exactly one thing from the
//! runtime: a faithful record of what an external observer could have
//! seen. That is four kinds of event — rendered changelog rows, sink
//! watermark deliveries, checkpoint/restore epoch transitions, and the
//! finish marker — in the order the sinks observed them. A [`HistoryTap`]
//! is a cheap, cloneable handle to that record; install it with
//! [`crate::SqlPipeline::set_history_tap`] (or
//! [`crate::PipelineDriver::set_history_tap`]) and the driver appends as
//! it runs.
//!
//! The tap is deliberately shared (`Arc` underneath): a checker drives
//! several *incarnations* of a killed-and-restored pipeline and installs
//! the same tap on each, so the concatenated record spans crashes. The
//! [`HistoryEvent::Restored`] marker is what lets a checker splice out
//! the uncommitted suffix a crash discarded (mirroring what a
//! transactional sink's truncation does to its file).

use std::sync::{Arc, Mutex};

use onesql_exec::StreamRow;
use onesql_time::Watermark;

/// One observable event in a pipeline's history, in sink order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryEvent {
    /// A rendered changelog row was delivered to the sinks.
    Emitted(StreamRow),
    /// The output watermark reported to sinks advanced to this value.
    /// Recorded *after* the rows the watermark released, exactly as sinks
    /// hear it.
    Watermark(Watermark),
    /// A checkpoint barrier completed and sinks staged epoch `epoch`.
    CheckpointTaken {
        /// The new staging epoch (1 for the first checkpoint).
        epoch: u64,
    },
    /// A fresh driver restored checkpoint epoch `epoch`: everything this
    /// tap recorded after the matching [`HistoryEvent::CheckpointTaken`]
    /// was uncommitted staging and is void.
    Restored {
        /// The epoch the restore rewound to.
        epoch: u64,
    },
    /// The pipeline finished: all inputs complete, sinks flushed.
    Finished,
}

/// A cloneable, thread-safe recorder of [`HistoryEvent`]s; see the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct HistoryTap {
    events: Arc<Mutex<Vec<HistoryEvent>>>,
}

impl HistoryTap {
    /// An empty tap.
    pub fn new() -> HistoryTap {
        HistoryTap::default()
    }

    /// Append one event.
    pub fn record(&self, event: HistoryEvent) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event);
    }

    /// Append a batch of emitted rows (one [`HistoryEvent::Emitted`] per
    /// row, in slice order — the order the sinks received them).
    pub fn record_rows(&self, rows: &[StreamRow]) {
        if rows.is_empty() {
            return;
        }
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        events.extend(rows.iter().cloned().map(HistoryEvent::Emitted));
    }

    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<HistoryEvent> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// How many events are recorded.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard everything recorded so far (the handle stays installed).
    pub fn clear(&self) {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::{row, Ts};

    #[test]
    fn clones_share_the_record() {
        let tap = HistoryTap::new();
        let other = tap.clone();
        tap.record(HistoryEvent::CheckpointTaken { epoch: 1 });
        other.record_rows(&[StreamRow {
            row: row!(1i64),
            undo: false,
            ptime: Ts(5),
            ver: 0,
        }]);
        assert_eq!(tap.len(), 2);
        assert_eq!(other.events(), tap.events());
        tap.clear();
        assert!(other.is_empty());
    }

    #[test]
    fn empty_row_batches_record_nothing() {
        let tap = HistoryTap::new();
        tap.record_rows(&[]);
        assert!(tap.is_empty());
    }
}
