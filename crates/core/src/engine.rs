//! The engine: catalog plus query lifecycle.

use std::collections::BTreeMap;
use std::sync::Arc;

use onesql_exec::{compile, ExecConfig};
use onesql_plan::{bind, optimize, BoundQuery, Catalog, MemoryCatalog, TableKind};
use onesql_state::TemporalTable;
use onesql_types::{DataType, Duration, Error, Field, Result, Row, Schema, SchemaRef};

use crate::query::RunningQuery;

/// Fluent schema builder for registering relations.
#[derive(Debug, Default, Clone)]
pub struct StreamBuilder {
    fields: Vec<Field>,
}

impl StreamBuilder {
    /// Start an empty schema.
    pub fn new() -> StreamBuilder {
        StreamBuilder::default()
    }

    /// Add a plain column.
    pub fn column(mut self, name: impl Into<String>, data_type: DataType) -> StreamBuilder {
        self.fields.push(Field::new(name, data_type));
        self
    }

    /// Add a watermarked event-time column (paper Extension 1).
    pub fn event_time_column(mut self, name: impl Into<String>) -> StreamBuilder {
        self.fields.push(Field::event_time(name));
        self
    }

    /// Finish into a schema.
    pub fn build(self) -> Schema {
        Schema::new(self.fields)
    }
}

/// Static table contents held by the engine.
#[derive(Debug, Clone)]
enum TableData {
    /// A plain bounded table.
    Static(Vec<Row>),
    /// A system-time versioned table supporting `AS OF SYSTEM TIME`.
    Temporal(TemporalTable),
}

/// The engine: a catalog of streams and tables, shared execution
/// configuration, and a factory for running queries.
///
/// Streams and tables are both registered as TVRs; only their boundedness
/// differs (§3.1). Queries are planned once and run deterministically under
/// a virtual processing-time clock, which is what lets this engine replay
/// the paper's listings exactly.
#[derive(Default)]
pub struct Engine {
    catalog: MemoryCatalog,
    tables: BTreeMap<String, TableData>,
    config: ExecConfig,
}

impl Engine {
    /// An engine with default configuration.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Configure allowed lateness for event-time groupings (Extension 2).
    pub fn with_allowed_lateness(mut self, lateness: Duration) -> Engine {
        self.config.allowed_lateness = lateness;
        self
    }

    /// Execution configuration in use.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Register an unbounded stream.
    pub fn register_stream(&mut self, name: impl Into<String>, schema: StreamBuilder) {
        let name = name.into();
        self.catalog
            .register(&name, Arc::new(schema.build()), TableKind::Stream);
    }

    /// Register an unbounded stream from an explicit schema.
    pub fn register_stream_schema(&mut self, name: impl Into<String>, schema: Schema) {
        self.catalog
            .register(name.into(), Arc::new(schema), TableKind::Stream);
    }

    /// Register a bounded, static table with its contents.
    pub fn register_table(
        &mut self,
        name: impl Into<String>,
        schema: StreamBuilder,
        rows: Vec<Row>,
    ) -> Result<()> {
        let name = name.into();
        let schema = schema.build();
        for row in &rows {
            validate_row(&schema, row)?;
        }
        self.catalog
            .register(&name, Arc::new(schema), TableKind::Table);
        self.tables
            .insert(name.to_ascii_lowercase(), TableData::Static(rows));
        Ok(())
    }

    /// Register a temporal (system-time versioned) table; query historical
    /// snapshots with `AS OF SYSTEM TIME` (§6.1).
    pub fn register_temporal_table_schema(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        table: TemporalTable,
    ) {
        let name = name.into();
        self.catalog
            .register(&name, Arc::new(schema), TableKind::Table);
        self.tables
            .insert(name.to_ascii_lowercase(), TableData::Temporal(table));
    }

    /// The relation catalog (for statement binding).
    pub(crate) fn catalog(&self) -> &MemoryCatalog {
        &self.catalog
    }

    /// The same catalog and configuration with no table contents (what a
    /// dry run of DDL needs).
    pub(crate) fn without_contents(&self) -> Engine {
        Engine {
            catalog: self.catalog.clone(),
            tables: BTreeMap::new(),
            config: self.config,
        }
    }

    /// Unregister a relation (stream or table). Errors when the name is
    /// unknown.
    pub fn drop_relation(&mut self, name: &str) -> Result<()> {
        if !self.catalog.remove(name) {
            return Err(Error::catalog(format!(
                "cannot drop '{name}': no such relation"
            )));
        }
        self.tables.remove(&name.to_ascii_lowercase());
        Ok(())
    }

    /// Mutably borrow a registered temporal table (to apply new versions).
    pub fn temporal_table_mut(&mut self, name: &str) -> Result<&mut TemporalTable> {
        match self.tables.get_mut(&name.to_ascii_lowercase()) {
            Some(TableData::Temporal(t)) => Ok(t),
            _ => Err(Error::catalog(format!("'{name}' is not a temporal table"))),
        }
    }

    /// The schema of a registered relation.
    pub fn schema_of(&self, name: &str) -> Result<SchemaRef> {
        Ok(self.catalog.resolve(name)?.0)
    }

    /// Parse, bind, and optimize a query without executing it.
    pub fn plan(&self, sql: &str) -> Result<BoundQuery> {
        let ast = onesql_sql::parse(sql)?;
        let bound = bind(&ast, &self.catalog)?;
        Ok(optimize(bound))
    }

    /// Render the optimized logical plan (EXPLAIN).
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(self.plan(sql)?.explain())
    }

    /// The row-oracle hook (see [`crate::query`]): plan `sql` and run it
    /// as one query fed by hand. Not a way to run a query; that is
    /// `Session::execute_script`.
    #[doc(hidden)]
    pub fn execute(&self, sql: &str) -> Result<RunningQuery> {
        let bound = self.plan(sql)?;
        self.run(bound)
    }

    /// Start executing an already-planned query: one pipeline worker, or a
    /// bare `SELECT` over tables. Static tables referenced by the query
    /// are loaded immediately (their TVRs are constant, so they carry a
    /// final watermark); stream input is then fed by the driver.
    pub(crate) fn run(&self, bound: BoundQuery) -> Result<RunningQuery> {
        let mut executor = compile(&bound, self.config)?;
        executor.initialize()?;

        // Load static/temporal tables into their scan leaves.
        for source in executor.sources().to_vec() {
            let Some(data) = self.tables.get(&source.table.to_ascii_lowercase()) else {
                continue;
            };
            let rows = match (data, source.as_of) {
                (TableData::Static(rows), None) => rows.clone(),
                (TableData::Static(_), Some(_)) => {
                    return Err(Error::plan(format!(
                        "table '{}' is not temporal; AS OF SYSTEM TIME unsupported",
                        source.table
                    )))
                }
                (TableData::Temporal(t), Some(at)) => t.as_of(at).to_rows(),
                (TableData::Temporal(t), None) => t.current().to_rows(),
            };
            let now = executor.now();
            for row in rows {
                executor.feed_source(source.id, now, onesql_tvr::Element::insert(row))?;
            }
            executor.feed_source(
                source.id,
                now,
                onesql_tvr::Element::Watermark(onesql_time::Watermark::MAX),
            )?;
        }

        let input_schemas = self.stream_schemas();
        Ok(RunningQuery::new(bound, executor, input_schemas))
    }

    fn stream_schemas(&self) -> BTreeMap<String, SchemaRef> {
        // Only streams need runtime row validation; collect their schemas.
        let mut out = BTreeMap::new();
        for name in self.catalog.names() {
            if let Ok((schema, TableKind::Stream)) = self.catalog.resolve(name) {
                out.insert(name.to_ascii_lowercase(), schema);
            }
        }
        out
    }
}

/// Validate a row against a schema (arity and value types; NULL always
/// admissible).
pub(crate) fn validate_row(schema: &Schema, row: &Row) -> Result<()> {
    if row.arity() != schema.arity() {
        return Err(Error::exec(format!(
            "row arity {} does not match schema arity {}",
            row.arity(),
            schema.arity()
        )));
    }
    for (i, field) in schema.fields().iter().enumerate() {
        let v = row.value(i)?;
        if v.is_null() {
            if field.event_time {
                return Err(Error::exec(format!(
                    "event-time column '{}' must not be NULL",
                    field.name
                )));
            }
            continue;
        }
        if v.data_type() != field.data_type {
            return Err(Error::exec(format!(
                "column '{}' expects {}, got {}",
                field.name,
                field.data_type,
                v.data_type()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connect::replay::Replay;
    use crate::session::{Session, StatementResult};
    use onesql_types::{row, Ts};

    fn bid() -> StreamBuilder {
        StreamBuilder::new()
            .event_time_column("bidtime")
            .column("price", DataType::Int)
            .column("item", DataType::String)
    }

    fn category(engine: &mut Engine) {
        engine
            .register_table(
                "Category",
                StreamBuilder::new()
                    .column("id", DataType::Int)
                    .column("name", DataType::String),
                vec![row!(1i64, "art"), row!(2i64, "cars")],
            )
            .unwrap();
    }

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.register_stream("Bid", bid());
        category(&mut e);
        e
    }

    /// The table view a bare `SELECT` returns.
    fn rows(session: &mut Session, sql: &str) -> Vec<Row> {
        match session.execute(sql).unwrap() {
            StatementResult::Rows(rows) => rows,
            other => panic!("{sql}: expected rows, got {other:?}"),
        }
    }

    #[test]
    fn explain_renders_plan() {
        let e = engine();
        let s = e.explain("SELECT price FROM Bid WHERE price > 2").unwrap();
        assert!(s.contains("Filter"), "{s}");
        assert!(s.contains("Scan: Bid"), "{s}");
    }

    #[test]
    fn static_table_queryable_immediately() {
        let mut session = Session::new(crate::ConnectorRegistry::new());
        category(session.engine_mut());
        // Note: ORDER BY binds against the output schema, so the sort key
        // must be projected.
        let sql = "SELECT id, name FROM Category ORDER BY id DESC";
        assert_eq!(
            rows(&mut session, sql),
            vec![row!(2i64, "cars"), row!(1i64, "art")]
        );
    }

    #[test]
    fn stream_joined_with_static_table() {
        let mut replay = Replay::new([("Bid", bid().build())]);
        replay.insert(Ts::hm(8, 0), "Bid", row!(Ts::hm(8, 0), 2i64, "x"));
        let (mut session, _) = replay.session().unwrap();
        category(session.engine_mut());
        let sql = "INSERT INTO out SELECT B.item, C.name FROM Bid B \
                   JOIN Category C ON B.price = C.id";
        let mut pipeline = session
            .execute_script(sql)
            .unwrap()
            .into_pipeline()
            .unwrap();
        pipeline.run().unwrap();
        assert_eq!(pipeline.table().unwrap(), vec![row!("x", "cars")]);
    }

    #[test]
    fn temporal_table_as_of() {
        let mut session = Session::new(crate::ConnectorRegistry::new());
        category(session.engine_mut());
        let mut t = TemporalTable::with_key(vec![0]);
        t.insert(Ts::hm(9, 0), row!("EUR", 114i64)).unwrap();
        t.insert(Ts::hm(10, 0), row!("EUR", 120i64)).unwrap();
        let rates = StreamBuilder::new()
            .column("currency", DataType::String)
            .column("rate", DataType::Int);
        let engine = session.engine_mut();
        engine.register_temporal_table_schema("Rates", rates.build(), t);
        let as_of = "SELECT rate FROM Rates AS OF SYSTEM TIME TIMESTAMP '9:30'";
        assert_eq!(rows(&mut session, as_of), vec![row!(114i64)]);
        assert_eq!(
            rows(&mut session, "SELECT rate FROM Rates"),
            vec![row!(120i64)]
        );
        // Mutating through the engine is visible to later queries.
        session
            .engine_mut()
            .temporal_table_mut("Rates")
            .unwrap()
            .insert(Ts::hm(11, 0), row!("EUR", 125i64))
            .unwrap();
        assert_eq!(
            rows(&mut session, "SELECT rate FROM Rates"),
            vec![row!(125i64)]
        );
        assert!(session.engine_mut().temporal_table_mut("Category").is_err());
    }

    #[test]
    fn row_validation_on_table_registration() {
        let mut e = Engine::new();
        let res = e.register_table(
            "Bad",
            StreamBuilder::new().column("id", DataType::Int),
            vec![row!("not an int")],
        );
        assert!(res.is_err());
    }

    #[test]
    fn schema_of_lookup() {
        let e = engine();
        assert_eq!(e.schema_of("bid").unwrap().arity(), 3);
        assert!(e.schema_of("nope").is_err());
    }

    #[test]
    fn lateness_configuration() {
        let e = Engine::new().with_allowed_lateness(Duration::from_minutes(5));
        assert_eq!(e.config().allowed_lateness, Duration::from_minutes(5));
    }
}
