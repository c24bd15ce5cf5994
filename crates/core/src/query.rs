//! Running queries: feeding input, reading table and stream views.

use std::collections::BTreeMap;

use onesql_exec::{render_stream, Executor, StreamRow, STREAM_META_COLUMNS};
use onesql_plan::BoundQuery;
use onesql_state::StateMetrics;
use onesql_time::{Watermark, WatermarkGenerator};
use onesql_tvr::{Change, ChangeBatch, Changelog, Element};
use onesql_types::{format_table, Error, Result, Row, Schema, SchemaRef, Ts, Value};

use crate::engine::validate_row;

/// Custom cell formatter for table rendering: `(column index, value) ->
/// cell text`.
pub type ValueFormatter<'a> = &'a dyn Fn(usize, &Value) -> String;

/// A live query over time-varying inputs.
///
/// Feed stream changes and watermarks in processing-time order, then read
/// the result either as a **table** (a snapshot of the result TVR at any
/// processing time — the paper's `8:13 > SELECT ...;` interactions) or as a
/// **stream** (`EMIT STREAM`'s changelog rendering with `undo`/`ptime`/
/// `ver` metadata).
pub struct RunningQuery {
    query: BoundQuery,
    executor: Executor,
    input_schemas: BTreeMap<String, SchemaRef>,
    /// Optional per-stream watermark generators driven by inserted events.
    generators: BTreeMap<String, (usize, Box<dyn WatermarkGenerator>)>,
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

impl std::fmt::Debug for RunningQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningQuery")
            .field("schema", &self.schema().to_string())
            .field("now", &self.now())
            .field("watermark", &self.output_watermark())
            .field("changes", &self.changelog().len())
            .finish()
    }
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
            generators: BTreeMap::new(),
            vectorize: true,
        }
    }

    /// Turn the columnar path on or off (see [`RunningQuery::vectorizes`]).
    pub(crate) fn set_vectorize(&mut self, on: bool) {
        self.vectorize = on;
    }

    /// The query's output schema.
    pub fn schema(&self) -> SchemaRef {
        self.executor.schema()
    }

    /// Attach a watermark generator to a stream: each inserted event feeds
    /// the generator with the value of the stream's first event-time
    /// column, and any watermark advancement is delivered automatically.
    /// (The paper's own timeline instead uses explicit punctuated
    /// watermarks via [`RunningQuery::watermark`].)
    pub fn set_watermark_generator(
        &mut self,
        table: &str,
        generator: Box<dyn WatermarkGenerator>,
    ) -> Result<()> {
        let schema = self.stream_schema(table)?;
        let et_cols = schema.event_time_columns();
        let col = *et_cols.first().ok_or_else(|| {
            Error::plan(format!(
                "stream '{table}' has no event-time column for watermark generation"
            ))
        })?;
        self.generators
            .insert(table.to_ascii_lowercase(), (col, generator));
        Ok(())
    }

    fn stream_schema(&self, table: &str) -> Result<SchemaRef> {
        self.input_schemas
            .get(&table.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::catalog(format!("unknown stream '{table}'")))
    }

    /// Insert a row into a stream at processing time `ptime`.
    pub fn insert(&mut self, table: &str, ptime: Ts, row: Row) -> Result<()> {
        self.change(table, ptime, Change::insert(row))
    }

    /// Retract (delete) a row from a stream at processing time `ptime`.
    pub fn retract(&mut self, table: &str, ptime: Ts, row: Row) -> Result<()> {
        self.change(table, ptime, Change::retract(row))
    }

    /// Check `row` against the schema of stream `table`, as every way of
    /// feeding a change does first.
    pub(crate) fn validate(&self, table: &str, row: &Row) -> Result<()> {
        let schema = self.stream_schema(table)?;
        validate_row(&schema, row)
    }

    /// Whether a valid change to `table` can only move the clock: no leaf of
    /// the plan scans the stream and no watermark generator follows it.
    pub(crate) fn ignores(&self, table: &str) -> bool {
        !self.executor.scans(table) && !self.has_generator(table)
    }

    fn has_generator(&self, table: &str) -> bool {
        let generated = |name: &String| name.eq_ignore_ascii_case(table);
        self.generators.keys().any(generated)
    }

    /// Apply an arbitrary change.
    pub fn change(&mut self, table: &str, ptime: Ts, change: Change) -> Result<()> {
        self.validate(table, &change.row)?;
        let key = table.to_ascii_lowercase();
        // Drive the optional watermark generator from the event timestamp.
        let generated = if let Some((col, generator)) = self.generators.get_mut(&key) {
            let ts = change.row.value(*col)?.as_ts()?;
            generator.on_event(ts);
            Some(generator.current())
        } else {
            None
        };
        self.executor.feed(table, ptime, Element::Data(change))?;
        if let Some(wm) = generated {
            if wm != Watermark::MIN {
                self.executor.feed(table, ptime, Element::Watermark(wm))?;
            }
        }
        Ok(())
    }

    /// Whether changes to `table` may go in as columns — the one place that
    /// is decided. Requires the columnar path to be on, executor batch
    /// support (exactly one source leaf scans the table, no
    /// processing-time timers in the tree) and no watermark generator on
    /// the stream (a generator may emit a watermark after *every* event,
    /// which a whole-batch feed cannot interleave).
    pub fn vectorizes(&self, table: &str) -> bool {
        self.vectorize && !self.has_generator(table) && self.executor.supports_batches(table)
    }

    /// Apply a columnar run of changes, each at its own processing time.
    ///
    /// Observable behavior — changelog bytes, validation errors and their
    /// order, the clock — is identical to calling [`RunningQuery::change`]
    /// once per row; when the query does not vectorize for this table, that
    /// is literally what happens.
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
    /// columnar batch when the run has more than one change, all of one
    /// arity, and the table vectorizes; otherwise one change at a time,
    /// which also reproduces the oracle's error for a mixed-arity run.
    pub(crate) fn feed_run(&mut self, table: &str, run: Vec<(Ts, Change)>) -> Result<Fed> {
        let columns = run.len() > 1 && self.vectorizes(table);
        match columns.then(|| ChangeBatch::from_changes(&run)).flatten() {
            Some(batch) => self.feed_batch(table, &batch),
            None => self.feed_rows(table, run).map(|()| Fed::Rows),
        }
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
    pub fn watermark(&mut self, table: &str, ptime: Ts, wm: Ts) -> Result<()> {
        self.stream_schema(table)?;
        self.executor.feed(table, ptime, Element::watermark(wm))
    }

    /// Advance the processing-time clock (firing `EMIT AFTER DELAY`
    /// deadlines on the way).
    pub fn advance_to(&mut self, ptime: Ts) -> Result<()> {
        self.executor.advance_to(ptime)
    }

    /// Declare all inputs complete at `ptime`: final watermarks are
    /// delivered and all pending materialization flushes.
    pub fn finish(&mut self, ptime: Ts) -> Result<()> {
        self.executor.finish(ptime)
    }

    /// Current processing time.
    pub fn now(&self) -> Ts {
        self.executor.now()
    }

    /// The output relation's watermark.
    pub fn output_watermark(&self) -> Watermark {
        self.executor.output_watermark()
    }

    /// Total operator state footprint (for observability/benchmarks).
    pub fn state_metrics(&self) -> StateMetrics {
        self.executor.state_metrics()
    }

    /// The raw output changelog (the stream encoding of the result TVR).
    pub fn changelog(&self) -> &Changelog {
        self.executor.changelog()
    }

    /// Move the changelog recorded so far out, leaving it empty: the
    /// pipeline driver's drain, which appends the entries to its own merged
    /// log. From then on [`RunningQuery::changelog`], the table view and
    /// the stream view cover only what came after the take.
    pub fn take_changelog(&mut self) -> Changelog {
        self.executor.take_output()
    }

    /// Take a consistent checkpoint of all operator state (Appendix B.2.1).
    /// Restore it into a fresh `execute()` of the same SQL with
    /// [`RunningQuery::restore`].
    pub fn checkpoint(&self) -> Result<onesql_state::Checkpoint> {
        self.executor.checkpoint()
    }

    /// Restore operator state from a checkpoint taken on a query with the
    /// same plan. The changelog restarts at the restore point; watermark
    /// generators (if any) restart conservatively and catch up from new
    /// events.
    pub fn restore(&mut self, checkpoint: &onesql_state::Checkpoint) -> Result<()> {
        self.executor.restore(checkpoint)
    }

    /// Table view at processing time `at`: the snapshot of the result TVR,
    /// with the query's `ORDER BY` / `LIMIT` applied.
    pub fn table_at(&self, at: Ts) -> Result<Vec<Row>> {
        let mut rows = self.executor.changelog().snapshot_at(at).to_rows();
        apply_presentation(&self.query, &mut rows)?;
        Ok(rows)
    }

    /// Table view over everything processed so far.
    pub fn table(&self) -> Result<Vec<Row>> {
        self.table_at(Ts::MAX)
    }

    /// Stream view (`EMIT STREAM`, Extension 4): the changelog rendered
    /// with `undo` / `ptime` / `ver` metadata columns. Versions count per
    /// event-time window (the plan's window-identity columns).
    pub fn stream_rows(&self) -> Result<Vec<StreamRow>> {
        let ver_cols = onesql_exec::compile::version_columns(&self.query);
        render_stream(self.executor.changelog(), &ver_cols)
    }

    /// The schema of [`RunningQuery::stream_rows`] rendered as full rows:
    /// output columns plus `undo`, `ptime`, `ver`.
    pub fn stream_schema_with_meta(&self) -> Schema {
        let mut fields = self.schema().fields().to_vec();
        fields.push(onesql_types::Field::new(
            STREAM_META_COLUMNS[0],
            onesql_types::DataType::String,
        ));
        fields.push(onesql_types::Field::new(
            STREAM_META_COLUMNS[1],
            onesql_types::DataType::Timestamp,
        ));
        fields.push(onesql_types::Field::new(
            STREAM_META_COLUMNS[2],
            onesql_types::DataType::Int,
        ));
        Schema::new(fields)
    }

    /// Render the table view at `at` as an ASCII table in the paper's
    /// listing style. `format_value` lets callers customize cells (e.g.
    /// `$`-prefixed prices); pass `None` for plain `Display`.
    pub fn table_string_at(
        &self,
        at: Ts,
        format_value: Option<ValueFormatter<'_>>,
    ) -> Result<String> {
        let rows = self.table_at(at)?;
        let schema = self.schema();
        let headers: Vec<&str> = schema.names();
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| match format_value {
                        Some(f) => f(i, v),
                        None => v.to_string(),
                    })
                    .collect()
            })
            .collect();
        Ok(format_table(&headers, &cells))
    }
}

/// The table view's presentation step: `query`'s `ORDER BY`, then its
/// `LIMIT`, over a snapshot of the whole result — the one place either is
/// applied, for a [`RunningQuery`] and for a pipeline's merged log alike.
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
    use super::*;
    use crate::engine::{Engine, StreamBuilder};
    use onesql_time::BoundedOutOfOrderness;
    use onesql_types::{row, DataType, Duration};

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.register_stream(
            "Bid",
            StreamBuilder::new()
                .event_time_column("bidtime")
                .column("price", DataType::Int)
                .column("item", DataType::String),
        );
        e
    }

    #[test]
    fn insert_validates_schema() {
        let e = engine();
        let mut q = e.execute("SELECT * FROM Bid").unwrap();
        assert!(
            q.insert("Bid", Ts(0), row!(Ts(0), 1i64)).is_err(),
            "arity mismatch"
        );
        assert!(
            q.insert("Bid", Ts(0), row!(Ts(0), "str", "A")).is_err(),
            "type mismatch"
        );
        assert!(
            q.insert(
                "Bid",
                Ts(0),
                Row::new(vec![Value::Null, Value::Int(1), Value::str("A")])
            )
            .is_err(),
            "null event time"
        );
        assert!(q.insert("Nope", Ts(0), row!(1i64)).is_err());
    }

    #[test]
    fn order_by_and_limit_apply_to_table_view() {
        let e = engine();
        let mut q = e
            .execute("SELECT item, price FROM Bid ORDER BY price DESC LIMIT 2")
            .unwrap();
        for (i, (p, it)) in [(2i64, "A"), (5, "B"), (3, "C")].iter().enumerate() {
            q.insert("Bid", Ts(i as i64), row!(Ts(i as i64), *p, *it))
                .unwrap();
        }
        assert_eq!(q.table().unwrap(), vec![row!("B", 5i64), row!("C", 3i64)]);
    }

    #[test]
    fn watermark_generator_advances_automatically() {
        let e = engine();
        let mut q = e
            .execute(
                "SELECT wend, COUNT(*) FROM Tumble(data => TABLE(Bid), \
                 timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
                 GROUP BY wend EMIT AFTER WATERMARK",
            )
            .unwrap();
        q.set_watermark_generator(
            "Bid",
            Box::new(BoundedOutOfOrderness::new(Duration::from_minutes(2))),
        )
        .unwrap();
        q.insert("Bid", Ts::hm(8, 8), row!(Ts::hm(8, 7), 2i64, "A"))
            .unwrap();
        // Generator watermark: 8:07 - 2m = 8:05 < 8:10 -> gated.
        assert!(q.table().unwrap().is_empty());
        // Event at 8:13 pushes the watermark to 8:11 > 8:10 -> release.
        q.insert("Bid", Ts::hm(8, 14), row!(Ts::hm(8, 13), 3i64, "B"))
            .unwrap();
        assert_eq!(q.table().unwrap(), vec![row!(Ts::hm(8, 10), 1i64)]);
    }

    #[test]
    fn stream_rows_and_meta_schema() {
        let e = engine();
        let mut q = e.execute("SELECT item FROM Bid EMIT STREAM").unwrap();
        q.insert("Bid", Ts::hm(8, 8), row!(Ts::hm(8, 7), 2i64, "A"))
            .unwrap();
        let rows = q.stream_rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].ptime, Ts::hm(8, 8));
        assert!(!rows[0].undo);
        let meta = q.stream_schema_with_meta();
        assert_eq!(meta.names(), vec!["item", "undo", "ptime", "ver"]);
    }

    #[test]
    fn table_string_renders() {
        let e = engine();
        let mut q = e.execute("SELECT item, price FROM Bid").unwrap();
        q.insert("Bid", Ts(0), row!(Ts(0), 2i64, "A")).unwrap();
        let s = q.table_string_at(Ts::MAX, None).unwrap();
        assert!(s.contains("| item | price |"), "{s}");
        assert!(s.contains("| A    | 2     |"), "{s}");
        // Custom formatter: money column.
        let fmt = |i: usize, v: &Value| {
            if i == 1 {
                format!("${v}")
            } else {
                v.to_string()
            }
        };
        let s = q.table_string_at(Ts::MAX, Some(&fmt)).unwrap();
        assert!(s.contains("$2"), "{s}");
    }

    #[test]
    fn finish_flushes_everything() {
        let e = engine();
        let mut q = e
            .execute(
                "SELECT wend, COUNT(*) FROM Tumble(data => TABLE(Bid), \
                 timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
                 GROUP BY wend EMIT AFTER WATERMARK",
            )
            .unwrap();
        q.insert("Bid", Ts::hm(8, 8), row!(Ts::hm(8, 7), 2i64, "A"))
            .unwrap();
        assert!(q.table().unwrap().is_empty());
        q.finish(Ts::hm(9, 0)).unwrap();
        assert_eq!(q.table().unwrap(), vec![row!(Ts::hm(8, 10), 1i64)]);
        assert!(q.output_watermark().is_final());
    }
}
