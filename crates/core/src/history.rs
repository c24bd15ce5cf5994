//! Observable pipeline history: a sink that records what sinks observe.
//!
//! Black-box consistency checking (the approach `onesql-checker` borrows
//! from snapshot-isolation checkers) needs exactly one thing from the
//! runtime: a faithful record of what an external observer could have
//! seen. That is four kinds of event — rendered changelog rows, sink
//! watermark deliveries, checkpoint/restore epoch transitions, and the
//! finish marker — in the order the sinks observed them. A [`HistoryTap`]
//! is a cheap, cloneable handle to that record and a [`Sink`] like any
//! other: register it as a sink connector (or attach a clone with
//! [`crate::PipelineDriver::attach_sink`]) and
//! every sink callback appends the matching [`HistoryEvent`].
//!
//! The tap is deliberately shared (`Arc` underneath): a checker drives
//! several *incarnations* of a killed-and-restored pipeline and attaches
//! a clone of the same tap to each — before restoring, so the restore
//! marker lands in the record — and the concatenated record spans
//! crashes. The [`HistoryEvent::Restored`] marker is what lets a checker
//! splice out the uncommitted suffix a crash discarded (mirroring what a
//! transactional sink's truncation does to its file).

use std::sync::{Arc, Mutex, MutexGuard};

use onesql_exec::StreamRow;
use onesql_time::Watermark;
use onesql_types::Result;

use crate::connect::{Exports, OptionBag, Sink, SinkConnector, SinkSpec};

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

    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<HistoryEvent> {
        self.log().clone()
    }

    /// The rendered rows recorded so far, in sink order.
    pub fn rows(&self) -> Vec<StreamRow> {
        let log = self.log();
        let rows = log.iter().filter_map(|event| match event {
            HistoryEvent::Emitted(row) => Some(row.clone()),
            _ => None,
        });
        rows.collect()
    }

    fn log(&self) -> MutexGuard<'_, Vec<HistoryEvent>> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Sink for HistoryTap {
    fn name(&self) -> &str {
        "history"
    }

    /// One [`HistoryEvent::Emitted`] per row, in slice order.
    fn write(&mut self, rows: &[StreamRow]) -> Result<()> {
        self.log()
            .extend(rows.iter().cloned().map(HistoryEvent::Emitted));
        Ok(())
    }

    fn on_watermark(&mut self, wm: Watermark) -> Result<()> {
        self.log().push(HistoryEvent::Watermark(wm));
        Ok(())
    }

    fn on_checkpoint(&mut self, epoch: u64) -> Result<()> {
        self.log().push(HistoryEvent::CheckpointTaken { epoch });
        Ok(())
    }

    fn on_restore(&mut self, epoch: u64) -> Result<()> {
        self.log().push(HistoryEvent::Restored { epoch });
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.log().push(HistoryEvent::Finished);
        Ok(())
    }
}

/// A tap is also a sink family: registered under a name, every pipeline
/// built over `CREATE SINK ... WITH (connector = '<name>')` records into
/// this one tap.
impl SinkConnector for HistoryTap {
    fn declare(&self, _: &SinkSpec, _: &mut OptionBag) -> Result<()> {
        Ok(())
    }

    fn build(&self, _: &SinkSpec, _: &mut OptionBag, _: &mut Exports) -> Result<Box<dyn Sink>> {
        Ok(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::{row, Ts};

    #[test]
    fn clones_share_the_record_in_callback_order() {
        let mut tap = HistoryTap::new();
        let mut other = tap.clone();
        let row = StreamRow {
            row: row!(1i64),
            undo: false,
            ptime: Ts(5),
            ver: 0,
        };
        tap.on_restore(1).unwrap();
        other.write(std::slice::from_ref(&row)).unwrap();
        other.write(&[]).unwrap();
        tap.on_watermark(Watermark(Ts(4))).unwrap();
        other.on_checkpoint(2).unwrap();
        tap.flush().unwrap();
        let expected = vec![
            HistoryEvent::Restored { epoch: 1 },
            HistoryEvent::Emitted(row),
            HistoryEvent::Watermark(Watermark(Ts(4))),
            HistoryEvent::CheckpointTaken { epoch: 2 },
            HistoryEvent::Finished,
        ];
        assert_eq!(tap.events(), expected);
        assert_eq!(other.events(), expected);
    }
}
