//! The SQL-first session: *one SQL* for queries **and** topology.
//!
//! The paper's thesis is that tables, streams, and materialization
//! controls belong in one SQL dialect. [`Session`] extends that to the
//! pipeline boundary: `CREATE SOURCE` / `CREATE SINK` declare connectors
//! in the SQL text, and `INSERT INTO <sink> SELECT ... EMIT ...`
//! assembles a running pipeline over `SET workers = N` workers, so an
//! end-to-end job is one script through [`Session::execute_script`], with
//! no imperative wiring.
//!
//! Definitions persist: a `CREATE` mutates the session catalog, later
//! statements (in the same or a later script) bind against it, and every
//! `INSERT` instantiates fresh connectors from the stored definitions.
//! An `INSERT` is the only way a pipeline comes to exist: the session
//! hands the query the statement already bound to the driver's one
//! constructor and attaches fresh connectors. A bare `SELECT` reads only
//! tables and returns their rows ([`StatementResult::Rows`]).
//!
//! Connector factories come from a [`ConnectorRegistry`] — the
//! `onesql-connect` crate registers the built-in families (`file`,
//! `channel`, `nexmark`, `net`, ...) via its `default_registry()`.
//!
//! # Example
//!
//! A custom one-column counter source, registered and then driven
//! entirely from SQL into a [`HistoryTap`](crate::HistoryTap), which is
//! a sink family too:
//!
//! ```
//! use onesql_core::connect::{
//!     ConnectorRegistry, Exports, OptionBag, PartitionedSource, PartitionedVec, Source,
//!     SourceBatch, SourceConnector, SourceEvent, SourceSpec, SourceStatus,
//! };
//! use onesql_core::{HistoryTap, Session};
//! use onesql_types::{row, Result, SchemaRef, Ts};
//!
//! struct Counter(i64, i64, Vec<String>);
//! impl Source for Counter {
//!     fn name(&self) -> &str {
//!         "counter"
//!     }
//!     fn streams(&self) -> &[String] {
//!         &self.2
//!     }
//!     fn poll_batch(&mut self, max: usize) -> Result<SourceBatch> {
//!         let mut batch = SourceBatch::empty(SourceStatus::Ready);
//!         while self.0 < self.1 && batch.events.len() < max {
//!             batch.events.push(SourceEvent {
//!                 stream: 0,
//!                 ptime: Ts(self.0),
//!                 change: onesql_tvr::Change::insert(row!(self.0)),
//!             });
//!             self.0 += 1;
//!         }
//!         if self.0 == self.1 {
//!             batch.status = SourceStatus::Finished;
//!         }
//!         Ok(batch)
//!     }
//! }
//!
//! struct CounterConnector;
//! impl SourceConnector for CounterConnector {
//!     fn declare(
//!         &self,
//!         spec: &SourceSpec,
//!         options: &mut OptionBag,
//!     ) -> Result<Vec<(String, SchemaRef)>> {
//!         options.require_u64("events")?;
//!         let schema = spec.schema.clone().expect("declare with a column list");
//!         Ok(vec![(spec.name.to_string(), schema)])
//!     }
//!     fn build(
//!         &self,
//!         spec: &SourceSpec,
//!         options: &mut OptionBag,
//!         _exports: &mut Exports,
//!     ) -> Result<Box<dyn PartitionedSource>> {
//!         let events = options.require_u64("events")? as i64;
//!         let streams = vec![spec.name.to_string()];
//!         Ok(Box::new(PartitionedVec::single(Counter(0, events, streams))))
//!     }
//! }
//!
//! let collected = HistoryTap::new();
//! let mut registry = ConnectorRegistry::new();
//! registry.register_source("counter", CounterConnector);
//! registry.register_sink("collect", collected.clone());
//!
//! let mut session = Session::new(registry);
//! let outcome = session
//!     .execute_script(
//!         "CREATE SOURCE Numbers (n INT) WITH (connector = 'counter', events = 10);
//!          CREATE SINK out WITH (connector = 'collect');
//!          INSERT INTO out SELECT n FROM Numbers WHERE n % 2 = 0;",
//!     )
//!     .unwrap();
//! outcome.into_pipeline().unwrap().run().unwrap();
//! let rows: Vec<_> = collected.rows().into_iter().map(|r| r.row).collect();
//! assert_eq!(rows, [0i64, 2, 4, 6, 8].map(|n| row!(n)));
//! ```

use std::any::Any;
use std::collections::BTreeMap;

use onesql_plan::lint::{Diagnostic, LintMode, Severity};
use onesql_plan::statement::referenced_relations;
use onesql_plan::{
    bind_statement, BoundQuery, BoundStatement, Catalog, ConnectorOptions, SessionKnob, TableKind,
    TraceMode,
};
use onesql_sql::ast::{DropKind, Statement};
use onesql_sql::{Span, SpannedStatement};
use onesql_state::TemporalTable;
use onesql_types::{Error, Result, Row, Schema, SchemaRef, Ts};

use crate::connect::registry::{ConnectorRegistry, Exports, OptionBag, SinkSpec, SourceSpec};
use crate::connect::{DriverConfig, PartitionedSource, PipelineMetrics};
use crate::driver::PipelineDriver;
use crate::engine::Engine;
use crate::observe::{self, MetricRow};

/// Side handles exported while building connectors, keyed by
/// [`handle_key`], not yet committed to the session's handle store.
type StagedHandles = Vec<(String, Vec<Box<dyn Any + Send>>)>;

mod lint;

/// Handle-store key: kind-prefixed so a source and a sink sharing a
/// name cannot clobber each other's exported handles.
fn handle_key(kind: &str, name: &str) -> String {
    format!("{kind}:{name}").to_ascii_lowercase()
}

/// A stored `CREATE SOURCE` definition: enough to instantiate a fresh
/// connector per `INSERT`.
#[derive(Clone)]
struct SourceDef {
    /// Name as written in the DDL.
    name: String,
    connector: String,
    partitioned: bool,
    /// Inline DDL schema, if one was declared.
    schema: Option<SchemaRef>,
    /// Lowercased stream names the connector feeds (from `declare`).
    streams: Vec<String>,
    /// The subset of `streams` this CREATE itself registered in the
    /// catalog (vs. pre-existing ones), unregistered again on DROP.
    registered: Vec<String>,
    /// The connector's `SourceConnector::replayable` verdict, for lint.
    replayable: bool,
    /// The connector's `SourceConnector::retracts` verdict, for the plan.
    retracts: bool,
    options: ConnectorOptions,
}

/// A stored `CREATE SINK` definition.
#[derive(Clone)]
struct SinkDef {
    name: String,
    connector: String,
    options: ConnectorOptions,
}

/// A pipeline assembled by `INSERT INTO ... SELECT`: the
/// [`PipelineDriver`] plus the identity that makes it a durable artifact —
/// its id (the `INSERT` target, which `CHECKPOINT PIPELINE <id>` /
/// `RESTORE PIPELINE <id>` statements name) and the schema fingerprint of
/// every relation it reads, captured at assembly time.
pub struct SqlPipeline {
    /// Lowercased `INSERT INTO` target.
    name: String,
    /// `(lowercased relation, schema hash)` for every relation the query
    /// scans, in sorted order.
    fingerprint: Vec<(String, u64)>,
    driver: Box<PipelineDriver>,
}

impl SqlPipeline {
    /// The pipeline id: the lowercased `INSERT INTO` target, which
    /// `CHECKPOINT PIPELINE` / `RESTORE PIPELINE` statements reference.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of query workers (`SET workers` at assembly time).
    pub fn workers(&self) -> usize {
        self.driver.workers()
    }

    /// One scheduling round; see [`PipelineDriver::step`].
    pub fn step(&mut self) -> Result<usize> {
        self.driver.step()
    }

    /// Run until every source finishes; returns the final metrics.
    pub fn run(&mut self) -> Result<PipelineMetrics> {
        self.driver.run().cloned()
    }

    /// Declare the pipeline complete (flush gates, drain, flush sinks).
    pub fn finish(&mut self) -> Result<()> {
        self.driver.finish()
    }

    /// Current accounting.
    pub fn metrics(&mut self) -> PipelineMetrics {
        self.driver.metrics().clone()
    }

    /// Events ingested so far (cheap — no full metrics clone).
    pub fn events_in(&self) -> u64 {
        self.driver.events_in()
    }

    /// The driver's monotone processing-time clock; `AS OF` probes
    /// strictly below it are stable.
    pub fn clock(&self) -> Ts {
        self.driver.clock()
    }

    /// The result table over everything processed so far; see
    /// [`PipelineDriver::table_at`].
    pub fn table(&self) -> Result<Vec<Row>> {
        self.driver.table()
    }

    /// Temporal `AS OF` probe: the result table as of processing time
    /// `at`, with the query's `ORDER BY` / `LIMIT` applied. Works mid-run.
    /// After a restore the probe only covers changes since the restore
    /// point. See [`PipelineDriver::table_at`].
    pub fn table_at(&self, at: Ts) -> Result<Vec<Row>> {
        self.driver.table_at(at)
    }

    /// The driver underneath (checkpoint/restore, provenance, ...).
    pub fn driver_mut(&mut self) -> &mut PipelineDriver {
        &mut self.driver
    }

    /// Always `Some`: every pipeline runs the one driver. Kept for
    /// `perfbench/src/workloads/ckpt.rs`, which the benchmark freezes.
    pub fn as_sharded_mut(&mut self) -> Option<&mut PipelineDriver> {
        Some(self.driver_mut())
    }

    /// Persist a consistent snapshot of this pipeline into the
    /// [`crate::durable::CheckpointStore`] directory at `path`, retaining
    /// [`crate::durable::DEFAULT_RETAIN`] epochs: take the checkpoint,
    /// write it durably (versioned + CRC-protected, atomic rename), then
    /// acknowledge it so sources — and two-phase sinks — learn it is
    /// safe to trim below. Returns the persisted epoch. The directory is
    /// created on first use and reused (same pipeline, same schema
    /// fingerprint) afterwards.
    pub fn checkpoint_to(&mut self, path: impl AsRef<std::path::Path>) -> Result<u64> {
        self.checkpoint_to_retaining(path, crate::durable::DEFAULT_RETAIN)
    }

    /// [`SqlPipeline::checkpoint_to`] with an explicit retention count.
    pub fn checkpoint_to_retaining(
        &mut self,
        path: impl AsRef<std::path::Path>,
        retain: usize,
    ) -> Result<u64> {
        let mut store = crate::durable::CheckpointStore::open_or_create(
            path.as_ref(),
            &self.name,
            self.fingerprint.clone(),
            retain,
        )?;
        let checkpoint = self.driver.checkpoint()?;
        let persist = observe::Stopwatch::start();
        let epoch = store.save(&checkpoint)?;
        let persist_micros = persist.micros();
        // Only after the bytes are durable: let upstreams trim their
        // replay spools and two-phase sinks commit the staged epoch.
        self.driver.ack_checkpoint(&checkpoint)?;
        self.driver.note_checkpoint_persisted(epoch, persist_micros);
        Ok(epoch)
    }

    /// Resume this freshly assembled (un-stepped) pipeline from
    /// the newest epoch in the [`crate::durable::CheckpointStore`] at `path`. Refuses a
    /// store that belongs to a different pipeline id, and a store whose
    /// recorded schema fingerprint no longer matches the relations this
    /// pipeline reads (the error names the mismatched relation). Returns
    /// the restored epoch.
    pub fn restore_from(&mut self, path: impl AsRef<std::path::Path>) -> Result<u64> {
        let store = crate::durable::CheckpointStore::open(path.as_ref())?;
        store.verify_owner(&self.name)?;
        crate::durable::verify_fingerprint(
            &format!("RESTORE PIPELINE {}", self.name),
            store.fingerprint(),
            &self.fingerprint,
        )?;
        let (epoch, checkpoint) = store.load_latest()?;
        self.driver
            .restore(&checkpoint)
            .map_err(|e| Error::exec(format!("RESTORE PIPELINE {}: {e}", self.name)))?;
        Ok(epoch)
    }
}

impl std::fmt::Debug for SqlPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqlPipeline")
            .field("name", &self.name)
            .field("driver", &self.driver)
            .finish()
    }
}

/// One pipeline's row in a `SHOW PIPELINES` result: identity plus the
/// current telemetry rendered through
/// [`PipelineMetrics::render_rows`](crate::connect::PipelineMetrics::render_rows).
#[derive(Debug, Clone)]
pub struct PipelineInfo {
    /// The pipeline id (lowercased `INSERT INTO` target).
    pub name: String,
    /// Number of query workers.
    pub workers: usize,
    /// Telemetry as stable `(name, kind, value)` rows.
    pub rows: Vec<MetricRow>,
}

/// What one statement produced.
#[derive(Debug)]
pub enum StatementResult {
    /// DDL registered an object (the name).
    Created(String),
    /// `DROP` removed an object (the name); also returned for
    /// `IF EXISTS` on a missing object.
    Dropped(String),
    /// `EXPLAIN` output.
    Explained(String),
    /// `EXPLAIN ANALYZE` output: the plan plus the metrics observed by
    /// actually running the query to completion against freshly built
    /// connectors (no sink — the changelog is discarded).
    Analyzed {
        /// The optimized plan, as plain `EXPLAIN` renders it.
        plan: String,
        /// The executed pipeline's telemetry rows.
        rows: Vec<MetricRow>,
    },
    /// `SHOW PIPELINES` output: one entry per known pipeline.
    Pipelines(Vec<PipelineInfo>),
    /// `SET` applied a session knob (the knob name).
    Set(String),
    /// `CHECKPOINT PIPELINE` persisted an epoch durably.
    Checkpointed {
        /// The pipeline id.
        pipeline: String,
        /// The epoch the store now retains.
        epoch: u64,
    },
    /// `RESTORE PIPELINE` resumed a pipeline from a durable epoch.
    Restored {
        /// The pipeline id.
        pipeline: String,
        /// The epoch restored from.
        epoch: u64,
    },
    /// A bare `SELECT` over tables: its table view, with the query's
    /// `ORDER BY` / `LIMIT` applied. A query that reads a stream runs as
    /// a pipeline (`INSERT INTO <sink> SELECT ...`) instead.
    Rows(Vec<Row>),
    /// An `INSERT INTO ... SELECT` pipeline, assembled and ready to run.
    Pipeline(SqlPipeline),
    /// `EXPLAIN LINT` output: the analyzed script text plus the static
    /// analyzer's findings (spans index into `script`).
    Diagnostics {
        /// The script text that was analyzed (for the single-statement
        /// form, the statement's canonical SQL).
        script: String,
        /// The findings, in statement order; empty means a clean bill.
        diagnostics: Vec<Diagnostic>,
    },
    /// `SHOW TRACE` output: flight-recorder spans, oldest first.
    Trace(Vec<observe::TraceRecord>),
    /// `TRACE PIPELINE ... TO` wrote a Chrome trace-event JSON file.
    TraceExported {
        /// The pipeline label whose trace was exported.
        pipeline: String,
        /// Where the JSON landed.
        path: String,
        /// How many spans the export contains.
        spans: usize,
    },
}

impl StatementResult {
    /// Render an `EXPLAIN LINT` result as one line per finding (or a
    /// clean-bill line); `None` for other result kinds.
    pub fn render_lint(&self) -> Option<String> {
        match self {
            StatementResult::Diagnostics {
                script,
                diagnostics,
            } => Some(onesql_plan::render_report(diagnostics, script)),
            _ => None,
        }
    }
}

/// Everything a script produced, in statement order.
#[derive(Debug)]
pub struct ScriptOutcome {
    /// Per-statement results.
    pub results: Vec<StatementResult>,
    /// Static-analysis findings attached before execution (empty under
    /// `SET lint = 'off'`, or when the script lints clean). Spans index
    /// into the script text the outcome came from.
    pub diagnostics: Vec<Diagnostic>,
}

impl ScriptOutcome {
    /// The pipelines assembled by the script's `INSERT` statements, in
    /// order.
    pub fn pipelines(self) -> Vec<SqlPipeline> {
        self.results
            .into_iter()
            .filter_map(|r| match r {
                StatementResult::Pipeline(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// The script's single pipeline; errors when the script assembled
    /// none or several.
    pub fn into_pipeline(self) -> Result<SqlPipeline> {
        let mut pipelines = self.pipelines();
        match pipelines.len() {
            1 => Ok(pipelines.remove(0)),
            n => Err(Error::plan(format!(
                "expected the script to assemble exactly one pipeline \
                 (one INSERT INTO ... SELECT), found {n}"
            ))),
        }
    }

    /// All `EXPLAIN` outputs, in order.
    pub fn explains(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter_map(|r| match r {
                StatementResult::Explained(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// What DDL and `SET` change: the catalog, the stored connector
/// definitions, and the knobs later `INSERT`s are assembled under. A
/// [`Session`] owns one and changes it only through the methods below;
/// the linter dry-runs a script's DDL on a [`Definitions::dry_copy`]
/// through the very same methods, so the two cannot disagree about what
/// a statement does.
struct Definitions {
    /// The catalog, plus the contents of the tables DDL created.
    engine: Engine,
    /// `CREATE SOURCE` definitions, in creation order (which is also
    /// pipeline attach order).
    sources: Vec<SourceDef>,
    sinks: Vec<SinkDef>,
    /// Worker count, partition column and polling knobs for later
    /// `INSERT`s (`SET workers` and friends).
    config: DriverConfig,
    /// Epochs a `CHECKPOINT PIPELINE` store retains (`SET
    /// checkpoint_retain = K`).
    checkpoint_retain: usize,
}

impl Definitions {
    fn new() -> Definitions {
        Definitions {
            engine: Engine::new(),
            sources: Vec::new(),
            sinks: Vec::new(),
            config: DriverConfig::default(),
            checkpoint_retain: crate::durable::DEFAULT_RETAIN,
        }
    }

    /// A copy without table contents: everything a dry run of DDL reads
    /// or changes, and nothing it could change in the session.
    fn dry_copy(&self) -> Definitions {
        Definitions {
            engine: self.engine.without_contents(),
            sources: self.sources.clone(),
            sinks: self.sinks.clone(),
            config: self.config,
            checkpoint_retain: self.checkpoint_retain,
        }
    }

    fn create_stream(&mut self, name: String, schema: Schema) -> Result<StatementResult> {
        self.ensure_unregistered(&name)?;
        self.engine.register_stream_schema(&name, schema);
        Ok(StatementResult::Created(name))
    }

    fn create_temporal_table(
        &mut self,
        name: String,
        schema: Schema,
        key: Vec<usize>,
    ) -> Result<StatementResult> {
        self.ensure_unregistered(&name)?;
        self.engine
            .register_temporal_table_schema(&name, schema, TemporalTable::with_key(key));
        Ok(StatementResult::Created(name))
    }

    /// Validate the options against the connector family (`declare`,
    /// which builds nothing), register the streams the source feeds, and
    /// store the definition.
    fn create_source(
        &mut self,
        registry: &ConnectorRegistry,
        name: String,
        partitioned: bool,
        schema: Option<Schema>,
        options: ConnectorOptions,
    ) -> Result<StatementResult> {
        if self.find_source(&name).is_some() {
            return Err(Error::catalog(format!(
                "source '{name}' already exists; DROP SOURCE it first"
            )));
        }
        let schema: Option<SchemaRef> = schema.map(std::sync::Arc::new);
        let mut bag = OptionBag::new(format!("source '{name}'"), &options);
        let connector = bag.require_str("connector")?;
        let factory = registry.source(&connector)?;
        let (declared, replayable, retracts) = {
            let spec = SourceSpec {
                name: &name,
                partitioned,
                schema: schema.clone(),
                catalog: self.engine.catalog(),
            };
            let declared = factory.declare(&spec, &mut bag)?;
            bag.finish()?;
            (declared, factory.replayable(&spec), factory.retracts(&spec))
        };
        if declared.is_empty() {
            return Err(Error::plan(format!(
                "source '{name}' (connector '{connector}') declares no streams"
            )));
        }
        // Validate every declared stream against the catalog *before*
        // registering any of them, so a failed CREATE SOURCE leaves no
        // partial stream registrations behind.
        let mut to_register = Vec::new();
        for (stream, stream_schema) in &declared {
            match self.engine.catalog().resolve(stream) {
                Ok((existing, TableKind::Stream)) => {
                    if existing != *stream_schema {
                        return Err(Error::catalog(format!(
                            "source '{name}': stream '{stream}' is already \
                             registered with a different schema"
                        )));
                    }
                }
                Ok((_, TableKind::Table)) => {
                    return Err(Error::catalog(format!(
                        "source '{name}': '{stream}' is already registered \
                         as a table, not a stream"
                    )));
                }
                Err(_) => to_register.push((stream.clone(), stream_schema.clone())),
            }
        }
        let mut registered = Vec::with_capacity(to_register.len());
        for (stream, stream_schema) in to_register {
            registered.push(stream.to_ascii_lowercase());
            self.engine
                .register_stream_schema(stream, (*stream_schema).clone());
        }
        self.sources.push(SourceDef {
            name: name.clone(),
            connector,
            partitioned,
            schema,
            streams: declared
                .iter()
                .map(|(s, _)| s.to_ascii_lowercase())
                .collect(),
            registered,
            replayable,
            retracts,
            options,
        });
        Ok(StatementResult::Created(name))
    }

    fn create_sink(
        &mut self,
        registry: &ConnectorRegistry,
        name: String,
        options: ConnectorOptions,
    ) -> Result<StatementResult> {
        if self.find_sink(&name).is_some() {
            return Err(Error::catalog(format!(
                "sink '{name}' already exists; DROP SINK it first"
            )));
        }
        let mut bag = OptionBag::new(format!("sink '{name}'"), &options);
        let connector = bag.require_str("connector")?;
        let factory = registry.sink(&connector)?;
        factory.declare(&SinkSpec { name: &name }, &mut bag)?;
        bag.finish()?;
        self.sinks.push(SinkDef {
            name: name.clone(),
            connector,
            options,
        });
        Ok(StatementResult::Created(name))
    }

    fn drop_object(
        &mut self,
        kind: DropKind,
        if_exists: bool,
        name: &str,
    ) -> Result<StatementResult> {
        let existed = match kind {
            DropKind::Source => match self.find_source(name) {
                Some(idx) => {
                    let def = self.sources.remove(idx);
                    // Unregister the streams this CREATE itself added,
                    // unless another live source still feeds them — so
                    // a dropped source can be recreated with a new
                    // schema, and no orphan stream lingers queryable.
                    for stream in &def.registered {
                        if !self.sources.iter().any(|d| d.streams.contains(stream)) {
                            let _ = self.engine.drop_relation(stream);
                        }
                    }
                    true
                }
                None => false,
            },
            DropKind::Sink => match self.find_sink(name) {
                Some(idx) => {
                    self.sinks.remove(idx);
                    true
                }
                None => false,
            },
            DropKind::Stream | DropKind::Table => match self.engine.catalog().resolve(name) {
                Ok((_, found)) => {
                    if (found == TableKind::Stream) != (kind == DropKind::Stream) {
                        let is = if found == TableKind::Stream {
                            "stream"
                        } else {
                            "table"
                        };
                        return Err(Error::catalog(format!(
                            "cannot DROP {} {name}: it is a {is}",
                            kind.as_str()
                        )));
                    }
                    // A stream a live source still feeds must not be
                    // dropped out from under it: the dangling SourceDef
                    // would rebuild connectors against a vanished (or
                    // later re-declared, differently-shaped) stream.
                    let lowered = name.to_ascii_lowercase();
                    if let Some(feeder) = self.sources.iter().find(|d| d.streams.contains(&lowered))
                    {
                        return Err(Error::catalog(format!(
                            "cannot DROP STREAM {name}: source '{}' feeds it; \
                             DROP SOURCE {} first",
                            feeder.name, feeder.name
                        )));
                    }
                    self.engine.drop_relation(name)?;
                    true
                }
                Err(_) => false,
            },
        };
        if !existed && !if_exists {
            return Err(Error::catalog(format!(
                "cannot drop {} '{name}': no such object (use IF EXISTS to \
                 tolerate absence)",
                kind.as_str()
            )));
        }
        Ok(StatementResult::Dropped(name.to_string()))
    }

    /// The knob half of a validated `SET`: the driver configuration later
    /// `INSERT`s pick up (already-assembled pipelines keep the one they
    /// were built with) and the checkpoint retention. `lint` and `trace`
    /// belong to the session itself and change nothing here.
    fn apply_knob(&mut self, knob: SessionKnob) -> Result<()> {
        match knob {
            SessionKnob::Workers(n) => self.config.workers = n,
            SessionKnob::BatchSize(n) => self.config.batch_size = n,
            SessionKnob::MinBatch(n) => {
                let adaptive = &mut self.config.adaptive;
                if n > adaptive.max_batch {
                    return Err(Error::plan(format!(
                        "SET min_batch = {n}: exceeds max_batch ({})",
                        adaptive.max_batch
                    )));
                }
                adaptive.min_batch = n;
            }
            SessionKnob::MaxBatch(n) => {
                let adaptive = &mut self.config.adaptive;
                if n < adaptive.min_batch {
                    return Err(Error::plan(format!(
                        "SET max_batch = {n}: below min_batch ({})",
                        adaptive.min_batch
                    )));
                }
                adaptive.max_batch = n;
            }
            SessionKnob::MaxIdleRounds(n) => {
                self.config.max_idle_rounds = if n == 0 { None } else { Some(n) };
            }
            SessionKnob::CheckpointRetain(k) => self.checkpoint_retain = k,
            SessionKnob::Lint(_) | SessionKnob::Trace(_) => {}
        }
        Ok(())
    }

    fn ensure_unregistered(&self, name: &str) -> Result<()> {
        if self.engine.catalog().resolve(name).is_ok() {
            return Err(Error::catalog(format!(
                "relation '{name}' already exists; DROP it first"
            )));
        }
        Ok(())
    }

    /// Declare in `query`'s plan which of the `streams` it reads only
    /// insert: those whose every source says it never retracts
    /// (`SourceConnector::retracts`). A stream no source feeds keeps the
    /// binder's assumption that it can.
    fn declare_insert_only(&self, query: &mut BoundQuery, streams: &[String]) {
        let insert_only: Vec<String> = streams
            .iter()
            .filter(|stream| {
                let feeders: Vec<&SourceDef> = self
                    .sources
                    .iter()
                    .filter(|d| d.streams.contains(stream))
                    .collect();
                !feeders.is_empty() && feeders.iter().all(|d| !d.retracts)
            })
            .cloned()
            .collect();
        query.plan.declare_insert_only(&insert_only);
    }

    fn find_source(&self, name: &str) -> Option<usize> {
        self.sources
            .iter()
            .position(|d| d.name.eq_ignore_ascii_case(name))
    }

    fn find_sink(&self, name: &str) -> Option<usize> {
        self.sinks
            .iter()
            .position(|d| d.name.eq_ignore_ascii_case(name))
    }
}

/// The SQL-first facade over an [`Engine`]: executes multi-statement
/// scripts where DDL mutates a persistent catalog and `INSERT INTO ...
/// SELECT` assembles running pipelines. See the [module docs](self) for
/// an end-to-end example.
pub struct Session {
    defs: Definitions,
    registry: ConnectorRegistry,
    /// Side handles exported by the most recent build of each connector,
    /// keyed by kind-prefixed lowercased connector name (a source and a
    /// sink may legally share a name without clobbering each other).
    handles: BTreeMap<String, Vec<Box<dyn Any + Send>>>,
    /// Pipelines in session custody (see [`Session::adopt_pipeline`]),
    /// addressable by `CHECKPOINT PIPELINE` / `RESTORE PIPELINE`
    /// statements across `execute` calls.
    pipelines: BTreeMap<String, SqlPipeline>,
    /// How [`Session::execute_script`] treats lint findings (`SET lint =
    /// 'strict'|'warn'|'off'`; default `warn`).
    lint: LintMode,
}

impl Session {
    /// A session over a fresh [`Engine`], building connectors from
    /// `registry`. `INSERT`s default to 1 worker and the default
    /// [`DriverConfig`]; see `SET workers` and friends, or
    /// [`Session::set_driver_config`].
    pub fn new(registry: ConnectorRegistry) -> Session {
        Session {
            defs: Definitions::new(),
            registry,
            handles: BTreeMap::new(),
            pipelines: BTreeMap::new(),
            lint: LintMode::default(),
        }
    }

    /// The underlying engine (catalog lookups, `explain`, table reads).
    pub fn engine(&self) -> &Engine {
        &self.defs.engine
    }

    /// Mutable engine access (e.g. to apply versions to a temporal table
    /// created by `CREATE TEMPORAL TABLE`).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.defs.engine
    }

    /// Replace the whole configuration — worker count and partition
    /// column included — for pipelines assembled by later `INSERT`s.
    pub fn set_driver_config(&mut self, config: DriverConfig) {
        self.defs.config = config;
    }

    /// Run a multi-statement script: DDL mutates the catalog, `INSERT`s
    /// assemble pipelines, `EXPLAIN`s render plans. Statements run in
    /// order; the first error stops the script (earlier statements stay
    /// applied — scripts are not transactions).
    ///
    /// Unless `SET lint = 'off'`, the script is first run through the
    /// static analyzer (see [`Session::lint_script`]); findings come back
    /// on [`ScriptOutcome::diagnostics`]. Under `SET lint = 'strict'`,
    /// any `Error`-severity finding refuses execution up front.
    pub fn execute_script(&mut self, sql: &str) -> Result<ScriptOutcome> {
        let statements = onesql_sql::parse_script_spanned(sql)?;
        let diagnostics = if self.lint == LintMode::Off {
            Vec::new()
        } else {
            let report = self.lint_statements(&statements);
            if self.lint == LintMode::Strict {
                if let Some(err) = report.iter().find(|d| d.severity == Severity::Error) {
                    return Err(Error::plan(format!(
                        "lint (strict): {}; SET lint = 'warn' to execute anyway",
                        err.render(sql)
                    )));
                }
            }
            report
        };
        let mut results = Vec::with_capacity(statements.len());
        for spanned in &statements {
            let result = self.run_statement(&spanned.statement, &mut results)?;
            results.push(result);
        }
        Ok(ScriptOutcome {
            results,
            diagnostics,
        })
    }

    /// `EXPLAIN LINT` / pre-execution analysis of `sql` (see
    /// [`onesql_plan::lint`] for the diagnostic codes), without executing
    /// anything: a dry run of the script on a copy of the session's
    /// catalog, source and sink definitions and knobs. The script's DDL
    /// and `SET`s run on the copy through the same code execution runs,
    /// so a statement the session would refuse is an `OSQL000` carrying
    /// the session's own error; queries, `INSERT`s and checkpoint
    /// statements are only analyzed. The dry run builds no connector and
    /// leaves the session untouched.
    pub fn lint_script(&self, sql: &str) -> Vec<Diagnostic> {
        match onesql_sql::parse_script_spanned(sql) {
            Ok(statements) => self.lint_statements(&statements),
            Err(err) => vec![Diagnostic {
                code: "OSQL000",
                severity: Severity::Error,
                message: err.to_string(),
                span: Span::new(0, sql.len()),
                statement: 0,
            }],
        }
    }

    fn lint_statements(&self, statements: &[SpannedStatement]) -> Vec<Diagnostic> {
        // Adopted pipelines already hold live connectors; with no
        // definition to judge, they count as replayable.
        let adopted = self.pipelines.keys().cloned();
        lint::Linter::new(self.defs.dry_copy(), &self.registry, adopted).run(statements)
    }

    /// Run a single statement (optionally `;`-terminated).
    pub fn execute(&mut self, sql: &str) -> Result<StatementResult> {
        let statement = onesql_sql::parse_statement(sql)?;
        self.run_statement(&statement, &mut Vec::new())
    }

    /// Move a pipeline into session custody, keyed by its id (the
    /// `INSERT INTO` target). While adopted, `CHECKPOINT PIPELINE <id>` /
    /// `RESTORE PIPELINE <id>` statements in later [`Session::execute`]
    /// calls can address it; retrieve it again with
    /// [`Session::take_pipeline`]. Errors if a pipeline with the same id
    /// is already adopted (take it first — silently dropping a live
    /// pipeline would kill its worker threads).
    pub fn adopt_pipeline(&mut self, pipeline: SqlPipeline) -> Result<()> {
        let name = pipeline.name().to_string();
        if self.pipelines.contains_key(&name) {
            return Err(Error::plan(format!(
                "a pipeline named '{name}' is already in session custody; \
                 take_pipeline it first"
            )));
        }
        self.pipelines.insert(name, pipeline);
        Ok(())
    }

    /// Take an adopted pipeline back out of session custody.
    pub fn take_pipeline(&mut self, name: &str) -> Option<SqlPipeline> {
        self.pipelines.remove(&name.to_ascii_lowercase())
    }

    /// Resolve a `CHECKPOINT` / `RESTORE` target: pipelines in session
    /// custody first, then pipelines assembled earlier in the *same
    /// script* (newest first) — so `INSERT INTO out ...; RESTORE
    /// PIPELINE out FROM '...'` works as one self-contained script.
    fn resolve_pipeline<'a>(
        &'a mut self,
        what: &str,
        id: &str,
        prior: &'a mut [StatementResult],
    ) -> Result<&'a mut SqlPipeline> {
        let key = id.to_ascii_lowercase();
        if !self.pipelines.contains_key(&key) {
            let found = prior.iter().rposition(
                |result| matches!(result, StatementResult::Pipeline(p) if p.name() == key),
            );
            if let Some(idx) = found {
                let StatementResult::Pipeline(p) = &mut prior[idx] else {
                    // Unreachable: `found` matched this exact shape.
                    return Err(Error::plan(format!("{what} {id}: pipeline result moved")));
                };
                return Ok(p);
            }
            let mut known: Vec<&str> = self.pipelines.keys().map(String::as_str).collect();
            let in_script: Vec<&str> = prior
                .iter()
                .filter_map(|r| match r {
                    StatementResult::Pipeline(p) => Some(p.name()),
                    _ => None,
                })
                .collect();
            known.extend(in_script);
            return Err(Error::plan(format!(
                "{what} {id}: no such pipeline; a pipeline is named by its \
                 INSERT INTO target and must be assembled earlier in the same \
                 script or adopted into the session (known: [{}])",
                known.join(", ")
            )));
        }
        self.pipelines
            .get_mut(&key)
            .ok_or_else(|| Error::plan(format!("{what} {id}: no such pipeline")))
    }

    /// Retrieve (and remove) a side handle exported by the most recent
    /// build of connector `name` — e.g. the `channel` source's
    /// publishers, or the in-memory `changelog` sink's output buffer.
    /// Returns the first stored handle of type `T`, searching the
    /// source's handles first, then the sink's (a source and a sink may
    /// share a name).
    pub fn take_handle<T: Any>(&mut self, name: &str) -> Option<T> {
        for key in [handle_key("source", name), handle_key("sink", name)] {
            let Some(slot) = self.handles.get_mut(&key) else {
                continue;
            };
            let Some(idx) = slot.iter().position(|h| h.is::<T>()) else {
                continue;
            };
            let handle = slot.remove(idx);
            match handle.downcast::<T>() {
                Ok(h) => return Some(*h),
                // Unreachable (`is::<T>` vetted the slot); restore it.
                Err(h) => slot.insert(idx, h),
            }
        }
        None
    }

    fn run_statement(
        &mut self,
        statement: &Statement,
        prior: &mut [StatementResult],
    ) -> Result<StatementResult> {
        let bound = bind_statement(statement, self.defs.engine.catalog())?;
        match bound {
            BoundStatement::Query(query) => self.table_rows(query),
            BoundStatement::Explain(query) => Ok(StatementResult::Explained(query.explain())),
            BoundStatement::ExplainAnalyze(query) => self.explain_analyze(query),
            BoundStatement::ExplainLint { script } => {
                let diagnostics = self.lint_script(&script);
                Ok(StatementResult::Diagnostics {
                    script,
                    diagnostics,
                })
            }
            BoundStatement::ShowPipelines => {
                let mut infos = Vec::new();
                for pipeline in self.pipelines.values_mut() {
                    infos.push(PipelineInfo {
                        name: pipeline.name().to_string(),
                        workers: pipeline.workers(),
                        rows: pipeline.metrics().render_rows(),
                    });
                }
                // Pipelines assembled earlier in the same script are
                // just as observable as adopted ones.
                for result in prior.iter_mut() {
                    if let StatementResult::Pipeline(p) = result {
                        infos.push(PipelineInfo {
                            name: p.name().to_string(),
                            workers: p.workers(),
                            rows: p.metrics().render_rows(),
                        });
                    }
                }
                Ok(StatementResult::Pipelines(infos))
            }
            BoundStatement::ShowTrace { pipeline, limit } => {
                let records = observe::recorder().records();
                let mut records = match pipeline {
                    Some(label) => observe::stitched(&records, &label),
                    None => records,
                };
                if let Some(n) = limit {
                    let n = n.min(records.len() as u64) as usize;
                    records.drain(..records.len() - n);
                }
                Ok(StatementResult::Trace(records))
            }
            BoundStatement::TracePipeline { pipeline, path } => {
                let records = observe::recorder().records();
                let stitched = observe::stitched(&records, &pipeline);
                let json = observe::chrome_trace_json(&stitched);
                std::fs::write(&path, json).map_err(|e| {
                    Error::exec(format!(
                        "TRACE PIPELINE {pipeline}: cannot write {path}: {e}"
                    ))
                })?;
                Ok(StatementResult::TraceExported {
                    pipeline,
                    path,
                    spans: stitched.len(),
                })
            }
            BoundStatement::Set(knob) => {
                self.defs.apply_knob(knob)?;
                match knob {
                    SessionKnob::Lint(mode) => self.lint = mode,
                    SessionKnob::Trace(TraceMode::Off) => observe::uninstall(),
                    SessionKnob::Trace(TraceMode::On) => {
                        observe::set_sample(1);
                        observe::install(observe::recorder().clone());
                    }
                    SessionKnob::Trace(TraceMode::Sample(n)) => {
                        observe::set_sample(n);
                        observe::install(observe::recorder().clone());
                    }
                    _ => {}
                }
                Ok(StatementResult::Set(knob.name().to_string()))
            }
            BoundStatement::CheckpointPipeline { pipeline, path } => {
                let retain = self.defs.checkpoint_retain;
                let target = self.resolve_pipeline("CHECKPOINT PIPELINE", &pipeline, prior)?;
                let epoch = target.checkpoint_to_retaining(&path, retain)?;
                Ok(StatementResult::Checkpointed {
                    pipeline: target.name().to_string(),
                    epoch,
                })
            }
            BoundStatement::RestorePipeline { pipeline, path } => {
                let target = self.resolve_pipeline("RESTORE PIPELINE", &pipeline, prior)?;
                let epoch = target.restore_from(&path)?;
                Ok(StatementResult::Restored {
                    pipeline: target.name().to_string(),
                    epoch,
                })
            }
            BoundStatement::CreateStream { name, schema } => self.defs.create_stream(name, schema),
            BoundStatement::CreateTemporalTable { name, schema, key } => {
                self.defs.create_temporal_table(name, schema, key)
            }
            BoundStatement::CreateSource {
                name,
                partitioned,
                schema,
                options,
            } => self
                .defs
                .create_source(&self.registry, name, partitioned, schema, options),
            BoundStatement::CreateSink { name, options } => {
                self.defs.create_sink(&self.registry, name, options)
            }
            BoundStatement::Insert { sink, query } => self.assemble_pipeline(&sink, query),
            BoundStatement::Drop {
                kind,
                if_exists,
                name,
            } => {
                let dropped = self.defs.drop_object(kind, if_exists, &name)?;
                // A dropped connector's handles go with it (a stream or a
                // table exports none).
                self.handles.remove(&handle_key(kind.as_str(), &name));
                Ok(dropped)
            }
        }
    }

    fn assemble_pipeline(&mut self, sink: &str, mut query: BoundQuery) -> Result<StatementResult> {
        let Some(sink_idx) = self.defs.find_sink(sink) else {
            let known: Vec<&str> = self.defs.sinks.iter().map(|d| d.name.as_str()).collect();
            return Err(Error::catalog(format!(
                "INSERT INTO {sink}: no such sink; known sinks: [{}]",
                known.join(", ")
            )));
        };
        let (streams, tables) = referenced_relations(&query);
        // The pipeline's schema fingerprint: every relation the query
        // scans, hashed as defined *right now*. A durable checkpoint
        // records this so a restore under changed definitions is refused
        // by relation name instead of replaying into mismatched state.
        let mut fingerprint = Vec::with_capacity(streams.len() + tables.len());
        for relation in streams.iter().chain(tables.iter()) {
            let (schema, _) = self.defs.engine.catalog().resolve(relation)?;
            fingerprint.push((
                relation.clone(),
                crate::durable::schema_fingerprint(&schema),
            ));
        }
        fingerprint.sort();
        self.defs.declare_insert_only(&mut query, &streams);
        // Connectors attach straight to the driver, so a failed assembly
        // drops them with it. Their handles are only *staged*: committing
        // them before the whole pipeline assembles would let a failed
        // INSERT clobber a live pipeline's handles with dead ones.
        let mut driver = PipelineDriver::with_query(&self.defs.engine, query, self.defs.config)?;
        let mut staged =
            self.attach_feeding_sources(&mut driver, &format!("INSERT INTO {sink}"), &streams)?;
        driver.attach_sink(self.build_sink(sink_idx, &mut staged)?)?;

        let name = sink.to_ascii_lowercase();
        // A fresh pipeline under this id supersedes any telemetry a
        // previous incarnation published.
        observe::hub().clear(&name);
        driver.set_label(&name);
        for (key, items) in staged {
            self.handles.insert(key, items);
        }
        Ok(StatementResult::Pipeline(SqlPipeline {
            name,
            fingerprint,
            driver: Box::new(driver),
        }))
    }

    /// A bare `SELECT`: the table view of a query that reads only tables.
    /// Their TVRs are constant, so the answer is complete at once; a
    /// stream's never is.
    fn table_rows(&self, query: BoundQuery) -> Result<StatementResult> {
        let (streams, _tables) = referenced_relations(&query);
        if !streams.is_empty() {
            return Err(Error::plan(format!(
                "a bare SELECT cannot read stream(s) [{}]: their result never \
                 completes; CREATE SINK and INSERT INTO it to run the query \
                 as a pipeline",
                streams.join(", ")
            )));
        }
        let mut query = self.defs.engine.run(query)?;
        query.finish(query.now())?;
        Ok(StatementResult::Rows(query.table()?))
    }

    /// `EXPLAIN ANALYZE`: render the optimized plan, then *actually
    /// execute* the query — fresh connectors for every stream it reads,
    /// no sink (the changelog is discarded) — and report the observed
    /// telemetry next to the plan. The throwaway run keeps its handles
    /// staged so it cannot clobber a live pipeline's exports, and it is
    /// deliberately unlabelled so it never publishes to the metrics hub.
    fn explain_analyze(&self, mut query: BoundQuery) -> Result<StatementResult> {
        let plan = query.explain();
        let (streams, _tables) = referenced_relations(&query);
        self.defs.declare_insert_only(&mut query, &streams);
        let mut driver = PipelineDriver::with_query(&self.defs.engine, query, self.defs.config)?;
        // The staged handles are dropped, never committed.
        self.attach_feeding_sources(&mut driver, "EXPLAIN ANALYZE", &streams)?;
        let rows = driver.run()?.render_rows();
        Ok(StatementResult::Analyzed { plan, rows })
    }

    /// Instantiate a fresh connector from every stored source definition
    /// that feeds one of `streams` and attach it to `driver`, in creation
    /// order. Returns the handles the connectors exported, for the caller
    /// to commit or drop. `what` names the statement in errors.
    fn attach_feeding_sources(
        &self,
        driver: &mut PipelineDriver,
        what: &str,
        streams: &[String],
    ) -> Result<StagedHandles> {
        let selected: Vec<usize> = (0..self.defs.sources.len())
            .filter(|&i| {
                self.defs.sources[i]
                    .streams
                    .iter()
                    .any(|s| streams.contains(s))
            })
            .collect();
        // EVERY referenced stream must have a feeding source — a
        // partially fed query (one joined stream covered, the other
        // not) would run to completion with silently empty joins.
        let unfed: Vec<&str> = streams
            .iter()
            .filter(|s| {
                !selected
                    .iter()
                    .any(|&i| self.defs.sources[i].streams.contains(s))
            })
            .map(String::as_str)
            .collect();
        if !unfed.is_empty() {
            return Err(Error::plan(format!(
                "{what}: no CREATE SOURCE feeds the query's stream(s) [{}]",
                unfed.join(", ")
            )));
        }
        if selected.is_empty() {
            return Err(Error::plan(format!(
                "{what}: the query reads no streams, so there is nothing to \
                 run; a pipeline needs at least one stream-feeding source"
            )));
        }
        let mut staged = Vec::new();
        for idx in selected {
            driver.attach_partitioned_source(self.build_source(idx, &mut staged)?)?;
        }
        Ok(staged)
    }

    fn build_source(
        &self,
        idx: usize,
        staged: &mut StagedHandles,
    ) -> Result<Box<dyn PartitionedSource>> {
        let def = &self.defs.sources[idx];
        let factory = self.registry.source(&def.connector)?;
        let mut bag = OptionBag::new(
            format!("source '{}' (connector '{}')", def.name, def.connector),
            &def.options,
        );
        let _ = bag.require_str("connector")?;
        let mut exports = Exports::default();
        let spec = SourceSpec {
            name: &def.name,
            partitioned: def.partitioned,
            schema: def.schema.clone(),
            catalog: self.defs.engine.catalog(),
        };
        let built = factory.build(&spec, &mut bag, &mut exports)?;
        staged.push((handle_key("source", &def.name), exports.into_items()));
        Ok(built)
    }

    fn build_sink(
        &self,
        idx: usize,
        staged: &mut StagedHandles,
    ) -> Result<Box<dyn crate::connect::Sink>> {
        let def = &self.defs.sinks[idx];
        let factory = self.registry.sink(&def.connector)?;
        let mut bag = OptionBag::new(
            format!("sink '{}' (connector '{}')", def.name, def.connector),
            &def.options,
        );
        let _ = bag.require_str("connector")?;
        let mut exports = Exports::default();
        let built = factory.build(&SinkSpec { name: &def.name }, &mut bag, &mut exports)?;
        staged.push((handle_key("sink", &def.name), exports.into_items()));
        Ok(built)
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field(
                "sources",
                &self
                    .defs
                    .sources
                    .iter()
                    .map(|d| d.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .field(
                "sinks",
                &self
                    .defs
                    .sinks
                    .iter()
                    .map(|d| d.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("workers", &self.defs.config.workers)
            .finish()
    }
}
