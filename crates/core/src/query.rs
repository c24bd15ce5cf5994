//! A planned query's executor, fed one worker's share of a pipeline.
//!
//! A [`RunningQuery`] is what a pipeline worker runs: the driver feeds it
//! changes and watermarks and drains its changelog. It is not a way to
//! run a query — that is `Session::execute_script` — and only the
//! row-oracle hook below is visible outside the crate.
//!
//! **The row-oracle hook.** [`crate::Engine::execute`] and the methods of
//! [`RunningQuery`] marked `#[doc(hidden)]` (`change`, `change_batch`,
//! `watermark`, `finish`, `now`, `schema`, `changelog`, `checkpoint`,
//! `restore`, `state_metrics` and `stream_rows`) let three callers feed
//! one query by hand and compare the columnar path with the per-row one:
//! `perfbench/src/layers.rs`, `crates/core/tests/vectorized_equiv.rs` and
//! `crates/core/tests/vectorized_speedup.rs`. Nothing else may use them.

use std::collections::BTreeMap;

use onesql_exec::{render_stream, Executor, StreamRow};
use onesql_plan::BoundQuery;
use onesql_state::StateMetrics;
use onesql_time::Watermark;
use onesql_tvr::{Change, ChangeBatch, Changelog, Element};
use onesql_types::{Error, Result, Row, Schema, SchemaRef, Ts};

use crate::engine::validate_row;

/// A live query over time-varying inputs: one pipeline worker's executor
/// (see the [module docs](self)).
#[doc(hidden)]
pub struct RunningQuery {
    query: BoundQuery,
    executor: Executor,
    input_schemas: BTreeMap<String, SchemaRef>,
    /// Whether a run may go in as columns at all. Off, every change goes
    /// through [`RunningQuery::change`]: the row oracle a pipeline runs
    /// under `DriverConfig::vectorize: false`.
    vectorize: bool,
}

/// The path a run of changes took into a [`RunningQuery`], which a
/// pipeline worker reports at its drain barrier.
pub(crate) enum Fed {
    /// One columnar batch.
    Columns,
    /// One [`RunningQuery::change`] per change.
    Rows,
}

impl RunningQuery {
    pub(crate) fn new(
        query: BoundQuery,
        executor: Executor,
        input_schemas: BTreeMap<String, SchemaRef>,
    ) -> RunningQuery {
        RunningQuery {
            query,
            executor,
            input_schemas,
            vectorize: true,
        }
    }

    /// Turn the columnar path on or off (see [`RunningQuery::vectorizes`]).
    pub(crate) fn set_vectorize(&mut self, on: bool) {
        self.vectorize = on;
    }

    /// The query's output schema.
    #[doc(hidden)]
    pub fn schema(&self) -> SchemaRef {
        self.executor.schema()
    }

    fn stream_schema(&self, table: &str) -> Result<SchemaRef> {
        self.input_schemas
            .get(&table.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::catalog(format!("unknown stream '{table}'")))
    }

    /// Check `row` against the schema of stream `table`, as every way of
    /// feeding a change does first.
    pub(crate) fn validate(&self, table: &str, row: &Row) -> Result<()> {
        let schema = self.stream_schema(table)?;
        validate_row(&schema, row)
    }

    /// Whether a valid change to `table` can only move the clock: no leaf of
    /// the plan scans the stream.
    pub(crate) fn ignores(&self, table: &str) -> bool {
        !self.executor.scans(table)
    }

    /// Apply an arbitrary change.
    #[doc(hidden)]
    pub fn change(&mut self, table: &str, ptime: Ts, change: Change) -> Result<()> {
        self.validate(table, &change.row)?;
        self.executor.feed(table, ptime, Element::Data(change))
    }

    /// Whether changes to `table` may go in as columns — the one place that
    /// is decided. Requires the columnar path to be on and executor batch
    /// support (exactly one source leaf scans the table, no
    /// processing-time timers in the tree).
    pub(crate) fn vectorizes(&self, table: &str) -> bool {
        self.vectorize && self.executor.supports_batches(table)
    }

    /// Apply a columnar run of changes, each at its own processing time.
    ///
    /// Observable behavior — changelog bytes, validation errors and their
    /// order, the clock — is identical to calling [`RunningQuery::change`]
    /// once per row; when the query does not vectorize for this table, that
    /// is literally what happens.
    #[doc(hidden)]
    pub fn change_batch(&mut self, table: &str, batch: &ChangeBatch) -> Result<()> {
        self.feed_batch(table, batch).map(drop)
    }

    /// [`RunningQuery::change_batch`], reporting the path it took. As
    /// columns, the rows before the first one validation rejects go in and
    /// then its error comes out, as per-row feeding would have it.
    pub(crate) fn feed_batch(&mut self, table: &str, batch: &ChangeBatch) -> Result<Fed> {
        if !self.vectorizes(table) {
            self.feed_rows(table, (0..batch.len()).map(|i| batch.timed_change(i)))?;
            return Ok(Fed::Rows);
        }
        if !batch.is_empty() {
            let schema = self.stream_schema(table)?;
            if let Some((k, err)) = first_invalid_row(&schema, batch) {
                self.executor.feed_batch(table, &batch.slice(0, k))?;
                return Err(err);
            }
            self.executor.feed_batch(table, batch)?;
        }
        Ok(Fed::Columns)
    }

    /// Apply a run of changes to `table` in processing-time order: as one
    /// columnar batch when the run has more than one change and the table
    /// vectorizes; otherwise one change at a time.
    pub(crate) fn feed_run(&mut self, table: &str, run: &ChangeBatch) -> Result<Fed> {
        if run.len() > 1 {
            return self.feed_batch(table, run);
        }
        self.feed_rows(table, (0..run.len()).map(|i| run.timed_change(i)))?;
        Ok(Fed::Rows)
    }

    /// The first row of `batch` that [`RunningQuery::validate`] rejects
    /// for stream `table`, with its error.
    pub(crate) fn first_invalid(
        &self,
        table: &str,
        batch: &ChangeBatch,
    ) -> Result<Option<(usize, Error)>> {
        let schema = self.stream_schema(table)?;
        Ok(first_invalid_row(&schema, batch))
    }

    /// The row oracle over a run: [`RunningQuery::change`] per change, up to
    /// the first error.
    fn feed_rows(
        &mut self,
        table: &str,
        run: impl IntoIterator<Item = (Ts, Change)>,
    ) -> Result<()> {
        run.into_iter()
            .try_for_each(|(ptime, change)| self.change(table, ptime, change))
    }

    /// Deliver a punctuated watermark on a stream: "as of processing time
    /// `ptime`, all future rows have event timestamps greater than `wm`".
    #[doc(hidden)]
    pub fn watermark(&mut self, table: &str, ptime: Ts, wm: Ts) -> Result<()> {
        self.stream_schema(table)?;
        self.executor.feed(table, ptime, Element::watermark(wm))
    }

    /// Advance the processing-time clock (firing `EMIT AFTER DELAY`
    /// deadlines on the way).
    pub(crate) fn advance_to(&mut self, ptime: Ts) -> Result<()> {
        self.executor.advance_to(ptime)
    }

    /// Declare all inputs complete at `ptime`: final watermarks are
    /// delivered and all pending materialization flushes.
    #[doc(hidden)]
    pub fn finish(&mut self, ptime: Ts) -> Result<()> {
        self.executor.finish(ptime)
    }

    /// Current processing time.
    #[doc(hidden)]
    pub fn now(&self) -> Ts {
        self.executor.now()
    }

    /// The output relation's watermark.
    pub(crate) fn output_watermark(&self) -> Watermark {
        self.executor.output_watermark()
    }

    /// Total operator state footprint (for observability/benchmarks).
    #[doc(hidden)]
    pub fn state_metrics(&self) -> StateMetrics {
        self.executor.state_metrics()
    }

    /// The raw output changelog (the stream encoding of the result TVR),
    /// copied.
    #[doc(hidden)]
    pub fn changelog(&self) -> Changelog {
        self.executor.changelog().clone()
    }

    /// How many entries the output changelog holds, without the copy
    /// [`RunningQuery::changelog`] makes.
    #[doc(hidden)]
    pub fn changelog_len(&self) -> usize {
        self.executor.changelog().len()
    }

    /// Move the changelog recorded so far out, leaving it empty: the
    /// pipeline driver's drain, which appends the entries to its own merged
    /// log. From then on [`RunningQuery::changelog`], the table view and
    /// the stream view cover only what came after the take.
    pub(crate) fn take_changelog(&mut self) -> Changelog {
        self.executor.take_output()
    }

    /// Take a consistent checkpoint of all operator state (Appendix B.2.1).
    /// Restore it into a fresh `execute()` of the same SQL with
    /// [`RunningQuery::restore`].
    #[doc(hidden)]
    pub fn checkpoint(&self) -> Result<onesql_state::Checkpoint> {
        self.executor.checkpoint()
    }

    /// Restore operator state from a checkpoint taken on a query with the
    /// same plan. The changelog restarts at the restore point.
    #[doc(hidden)]
    pub fn restore(&mut self, checkpoint: &onesql_state::Checkpoint) -> Result<()> {
        self.executor.restore(checkpoint)
    }

    /// The table view: the snapshot of the result TVR over everything
    /// processed so far, with the query's `ORDER BY` / `LIMIT` applied.
    pub(crate) fn table(&self) -> Result<Vec<Row>> {
        let mut rows = self.executor.changelog().snapshot().to_rows();
        apply_presentation(&self.query, &mut rows)?;
        Ok(rows)
    }

    /// Stream view (`EMIT STREAM`, Extension 4): the changelog rendered
    /// with `undo` / `ptime` / `ver` metadata columns. Versions count per
    /// event-time window (the plan's window-identity columns).
    #[doc(hidden)]
    pub fn stream_rows(&self) -> Result<Vec<StreamRow>> {
        let ver_cols = onesql_exec::compile::version_columns(&self.query);
        render_stream(self.executor.changelog(), &ver_cols)
    }
}

/// The table view's presentation step: `query`'s `ORDER BY`, then its
/// `LIMIT`, over a snapshot of the whole result — the one place either is
/// applied, for a bare `SELECT`'s result and for a pipeline's merged log
/// alike.
pub(crate) fn apply_presentation(query: &BoundQuery, rows: &mut Vec<Row>) -> Result<()> {
    if !query.order_by.is_empty() {
        let mut err = None;
        rows.sort_by(|a, b| {
            for key in &query.order_by {
                let (va, vb) = match (key.expr.eval(a), key.expr.eval(b)) {
                    (Ok(va), Ok(vb)) => (va, vb),
                    (Err(e), _) | (_, Err(e)) => {
                        err.get_or_insert(e);
                        return std::cmp::Ordering::Equal;
                    }
                };
                let ord = va.cmp(&vb);
                let ord = if key.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
    Ok(())
}

/// Columnar mirror of `validate_row`: find the first logical row the per-row
/// validator would reject, and its exact error. Wholly clean typed columns
/// are screened without materializing any row; only a batch that fails the
/// screen pays for the per-row scan.
fn first_invalid_row(schema: &Schema, batch: &ChangeBatch) -> Option<(usize, Error)> {
    if batch.arity() != schema.arity() {
        let error = match validate_row(schema, &batch.row(0)) {
            Err(e) => e,
            // Unreachable (the validator rejects arity mismatches), but a
            // synthesized error beats panicking on a hot path.
            Ok(()) => Error::exec(format!(
                "row arity {} does not match schema arity {}",
                batch.arity(),
                schema.arity()
            )),
        };
        return Some((0, error));
    }
    let clean =
        schema.fields().iter().zip(batch.columns()).all(|(f, c)| {
            c.uniform_type() == Some(f.data_type) && !(f.event_time && c.has_nulls())
        });
    if clean {
        return None;
    }
    (0..batch.len()).find_map(|i| validate_row(schema, &batch.row(i)).err().map(|e| (i, e)))
}

#[cfg(test)]
mod tests {
    use crate::connect::replay::Replay;
    use onesql_types::{row, DataType, Field, Row, Schema, Ts, Value};

    fn bids() -> Replay {
        let schema = Schema::new(vec![
            Field::event_time("bidtime"),
            Field::new("price", DataType::Int),
            Field::new("item", DataType::String),
        ]);
        Replay::new([("Bid", schema)])
    }

    #[test]
    fn insert_validates_schema() {
        for (row, why) in [
            (row!(Ts(0), 1i64), "arity mismatch"),
            (row!(Ts(0), "str", "A"), "type mismatch"),
            (
                Row::new(vec![Value::Null, Value::Int(1), Value::str("A")]),
                "null event time",
            ),
        ] {
            let mut replay = bids();
            replay.insert(Ts(0), "Bid", row);
            assert!(replay.run("SELECT * FROM Bid").is_err(), "{why}");
        }
        let mut replay = bids();
        replay.insert(Ts(0), "Nope", row!(1i64));
        assert!(replay.run("SELECT * FROM Bid").is_err(), "unknown stream");
    }

    #[test]
    fn order_by_and_limit_apply_to_table_view() {
        let mut replay = bids();
        for (i, (p, it)) in [(2i64, "A"), (5, "B"), (3, "C")].iter().enumerate() {
            replay.insert(Ts(i as i64), "Bid", row!(Ts(i as i64), *p, *it));
        }
        let sql = "SELECT item, price FROM Bid ORDER BY price DESC LIMIT 2";
        let (pipeline, _) = replay.run(sql).unwrap();
        let expected = vec![row!("B", 5i64), row!("C", 3i64)];
        assert_eq!(pipeline.table().unwrap(), expected);
    }

    #[test]
    fn stream_rows_reach_the_sink_with_undo_ptime_and_ver() {
        let mut replay = bids();
        replay
            .insert(Ts::hm(8, 8), "Bid", row!(Ts::hm(8, 7), 2i64, "A"))
            .retract(Ts::hm(8, 9), "Bid", row!(Ts::hm(8, 7), 2i64, "A"));
        let (_, tap) = replay.run("SELECT item FROM Bid EMIT STREAM").unwrap();
        let rows: Vec<(Row, bool, Ts, u64)> = tap
            .rows()
            .into_iter()
            .map(|r| (r.row, r.undo, r.ptime, r.ver))
            .collect();
        assert_eq!(
            rows,
            vec![
                (row!("A"), false, Ts::hm(8, 8), 0),
                (row!("A"), true, Ts::hm(8, 9), 1),
            ]
        );
    }

    #[test]
    fn finish_flushes_everything() {
        let mut replay = bids();
        replay
            .insert(Ts::hm(8, 8), "Bid", row!(Ts::hm(8, 7), 2i64, "A"))
            .advance(Ts::hm(9, 0));
        let sql = "SELECT wend, COUNT(*) FROM Tumble(data => TABLE(Bid), \
                   timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
                   GROUP BY wend EMIT AFTER WATERMARK";
        let (mut pipeline, _) = replay.run(sql).unwrap();
        // Nothing before the end of input, the window once it finished.
        assert!(pipeline.table_at(Ts::hm(8, 59)).unwrap().is_empty());
        assert_eq!(pipeline.table().unwrap(), vec![row!(Ts::hm(8, 10), 1i64)]);
        assert!(pipeline.metrics().output_watermark.is_final());
    }
}
