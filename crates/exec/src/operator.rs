//! The operator protocol.

use onesql_state::{Checkpoint, StateMetrics};
use onesql_tvr::{BatchOut, ChangeBatch, Element};
use onesql_types::{Error, Result, Ts};

/// A push-based incremental operator.
///
/// Operators receive [`Element`]s on numbered input ports and append their
/// outputs to `out`. The contract:
///
/// - **Data** elements are row changes; operators must handle retractions
///   (negative diffs), not just inserts.
/// - **Watermark** elements are punctuation. An n-ary operator must merge
///   per-port watermarks (minimum) before forwarding, and must emit any data
///   triggered by a watermark *before* forwarding the watermark itself, so
///   downstream completeness reasoning stays sound.
/// - `now` is the current processing time from the engine's virtual clock.
pub trait Operator: Send {
    /// Produce any elements that exist before input arrives (constant
    /// relations, initial rows of global aggregates).
    fn initialize(&mut self, _now: Ts, _out: &mut Vec<Element>) -> Result<()> {
        Ok(())
    }

    /// Process one element arriving on `port`.
    fn process(
        &mut self,
        port: usize,
        elem: Element,
        now: Ts,
        out: &mut Vec<Element>,
    ) -> Result<()>;

    /// Process a columnar batch of data changes arriving on `port`.
    ///
    /// The default implementation replays the batch through [`process`]
    /// (row-wise oracle), so every operator is batch-capable; hot operators
    /// override this with column-kernel implementations. Either way the
    /// outputs (and any error) must be *byte-identical* to feeding the rows
    /// one at a time, each at its own ptime.
    ///
    /// Error contract: on `Err`, `out` holds exactly the outputs of the
    /// source events strictly before the failing row's (all rows of
    /// [`ChangeBatch::event_range`] are one event, and its outputs are
    /// discarded together, as the per-row engine does for a failing event),
    /// then a [`BatchOut::failed_at`] that event's ptime.
    ///
    /// [`process`]: Operator::process
    fn process_batch(
        &mut self,
        port: usize,
        batch: &ChangeBatch,
        out: &mut Vec<BatchOut>,
    ) -> Result<()> {
        crate::vector::process_batch_rowwise(self, port, batch, out)
    }

    /// Whether this operator schedules processing-time timers. Trees with
    /// timer operators are excluded from the vectorized path: batches carry
    /// one ptime per row, while timers assume the clock pauses between
    /// events.
    fn uses_timers(&self) -> bool {
        false
    }

    /// Processing-time hook, called whenever the engine's clock advances
    /// (after all elements at that instant are processed). Used by
    /// `EMIT AFTER DELAY` timers.
    fn on_processing_time(&mut self, _now: Ts, _out: &mut Vec<Element>) -> Result<()> {
        Ok(())
    }

    /// The earliest pending processing-time deadline, if any. The executor
    /// steps the virtual clock through deadlines so `ptime` stamps on
    /// delayed materializations are exact.
    fn next_timer(&self) -> Option<Ts> {
        None
    }

    /// Current state footprint, for observability and the state benchmarks.
    fn state_metrics(&self) -> StateMetrics {
        StateMetrics::default()
    }

    /// Serialize this operator's state for a consistent checkpoint
    /// (Appendix B.2.1: "Flink periodically writes a consistent checkpoint
    /// of the application state"). `None` means the operator is stateless.
    fn checkpoint(&self) -> Result<Option<Checkpoint>> {
        Ok(None)
    }

    /// Restore state exactly as of a checkpoint taken by an operator
    /// compiled from the same plan.
    fn restore(&mut self, _checkpoint: &Checkpoint) -> Result<()> {
        Err(Error::exec(format!(
            "operator {} is stateless; nothing to restore",
            self.name()
        )))
    }

    /// Operator name for explain/debug output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Operator for Echo {
        fn process(
            &mut self,
            _port: usize,
            elem: Element,
            _now: Ts,
            out: &mut Vec<Element>,
        ) -> Result<()> {
            out.push(elem);
            Ok(())
        }
        fn name(&self) -> &'static str {
            "Echo"
        }
    }

    #[test]
    fn default_hooks_are_noops() {
        let mut op = Echo;
        let mut out = Vec::new();
        op.initialize(Ts(0), &mut out).unwrap();
        op.on_processing_time(Ts(0), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(op.state_metrics(), StateMetrics::default());
        assert_eq!(op.name(), "Echo");
    }
}
