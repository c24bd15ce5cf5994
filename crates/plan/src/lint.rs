//! Static pipeline analysis: `EXPLAIN LINT` semantic diagnostics.
//!
//! A pure, side-effect-free pass over a parsed SQL script. Each statement
//! is bound against an *evolving* catalog snapshot — exactly the order
//! execution would bind it — and a set of semantic checks grounded in the
//! engine's runtime behaviour is applied to the bound plans. Nothing here
//! touches connectors, spawns threads, or mutates a session: the analyzer
//! answers "what will go wrong (or quietly underperform) if I run this?"
//! before anything runs.
//!
//! Every finding is a [`Diagnostic`] with a stable `OSQL...` code, a
//! severity, a human message, and a byte-range [`Span`] into the original
//! script text, so callers can render `line:column` positions or highlight
//! the offending statement.
//!
//! The diagnostic vocabulary (see `docs/LINTING.md` for the full
//! catalogue):
//!
//! | code    | severity | meaning |
//! |---------|----------|---------|
//! | OSQL000 | error    | statement fails to parse or bind |
//! | OSQL001 | warning  | unbounded keyed state (join / aggregate / distinct with no time bound) |
//! | OSQL002 | warning  | shard-key misalignment under `workers > 1` |
//! | OSQL003 | warning  | windowed pipeline emitting without `EMIT AFTER WATERMARK` |
//! | OSQL004 | error    | `CHECKPOINT PIPELINE` that cannot checkpoint or restore |
//! | OSQL005 | warning  | watermark-dependent query over a source with no event-time column |
//! | OSQL006 | error    | sink schema drift between INSERTs (or vs a net sink's target stream) |
//! | OSQL007 | note/err | dead CREATEs; INSERT over a stream no source feeds |
//! | OSQL008 | warning  | contradictory session knobs |

use std::collections::{BTreeMap, BTreeSet};

use onesql_sql::ast::OptionValue;
use onesql_sql::{line_col_at, Span, SpannedStatement};
use onesql_types::{Error, Result, SchemaRef};

use crate::catalog::{Catalog, MemoryCatalog, TableKind};
use crate::expr::ScalarExpr;
use crate::plan::{BoundQuery, LogicalPlan};
use crate::statement::{
    bind_statement, referenced_relations, BoundStatement, ConnectorOptions, SessionKnob,
};

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: probably intentional, worth knowing.
    Note,
    /// The script will run but likely misbehaves or underperforms.
    Warning,
    /// The script will fail at execution time (or silently corrupt
    /// results); `SET lint = 'strict'` refuses to run it.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One lint finding, anchored to a byte range of the analyzed script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`OSQL001`...). Codes never change meaning;
    /// new checks get new codes.
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Human-readable explanation, including what to do about it.
    pub message: String,
    /// Byte range into the analyzed script text (usually the whole
    /// offending statement).
    pub span: Span,
    /// Zero-based index of the statement the finding is about.
    pub statement: usize,
}

impl Diagnostic {
    /// Render as `CODE severity at line L, column C: message`, resolving
    /// the span against the script text the diagnostics were produced
    /// from.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = line_col_at(src, self.span.start);
        format!(
            "{} {} at line {line}, column {col}: {}",
            self.code, self.severity, self.message
        )
    }
}

/// Render a whole report, one line per diagnostic, or a clean-bill line.
pub fn render_report(diags: &[Diagnostic], src: &str) -> String {
    if diags.is_empty() {
        return "no lint findings".to_string();
    }
    let lines: Vec<String> = diags.iter().map(|d| d.render(src)).collect();
    lines.join("\n")
}

/// How `Session::execute_script` treats lint findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// Refuse to execute a script with any `Error`-severity finding.
    Strict,
    /// Lint and attach findings to the outcome, but always execute.
    #[default]
    Warn,
    /// Skip analysis entirely.
    Off,
}

impl LintMode {
    /// Parse a `SET lint = '<mode>'` value.
    pub fn parse(s: &str) -> Result<LintMode> {
        match s.to_ascii_lowercase().as_str() {
            "strict" => Ok(LintMode::Strict),
            "warn" => Ok(LintMode::Warn),
            "off" => Ok(LintMode::Off),
            other => Err(Error::plan(format!(
                "SET lint: expected 'strict', 'warn', or 'off', got '{other}'"
            ))),
        }
    }

    /// The canonical spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            LintMode::Strict => "strict",
            LintMode::Warn => "warn",
            LintMode::Off => "off",
        }
    }
}

/// A source definition visible to the analyzer — either pre-existing in
/// the session (seeded via [`LintContext`]) or created by the script.
#[derive(Debug, Clone)]
pub struct SourceSeed {
    /// Source name, verbatim.
    pub name: String,
    /// Connector name, lowercased.
    pub connector: String,
    /// `CREATE PARTITIONED SOURCE`: the connector builds N partitions.
    pub partitioned: bool,
    /// Whether the source's events can be replayed into a restored
    /// pipeline instance: the connector family's own verdict
    /// (`SourceConnector::replayable`), copied in by the session.
    pub replayable: bool,
    /// Streams the source feeds, lowercased.
    pub streams: Vec<String>,
    /// The `partitions` WITH option, when present.
    pub partitions: Option<u64>,
}

/// A sink definition visible to the analyzer.
#[derive(Debug, Clone)]
pub struct SinkSeed {
    /// Sink name, verbatim.
    pub name: String,
    /// Connector name, lowercased.
    pub connector: String,
    /// The `stream` WITH option (net sinks name their target stream).
    pub stream: Option<String>,
}

/// A pipeline already adopted into the session.
#[derive(Debug, Clone)]
pub struct PipelineSeed {
    /// Pipeline id (the `INSERT INTO` target), lowercased.
    pub name: String,
    /// Whether all feeding connectors can replay after a restore.
    pub replayable: bool,
}

/// Session state the analyzer starts from: the catalog and the
/// source/sink/pipeline definitions that exist *before* the script runs,
/// plus current knob values. [`LintContext::default`] models a fresh
/// session.
#[derive(Debug, Clone)]
pub struct LintContext {
    /// Catalog snapshot; the analyzer clones and evolves it per statement.
    pub catalog: MemoryCatalog,
    /// Pre-existing sources.
    pub sources: Vec<SourceSeed>,
    /// Pre-existing sinks.
    pub sinks: Vec<SinkSeed>,
    /// Pre-existing pipelines (for `CHECKPOINT PIPELINE` checks).
    pub pipelines: Vec<PipelineSeed>,
    /// Current `workers` knob.
    pub workers: usize,
    /// Current `partition_col` knob.
    pub partition_col: usize,
    /// Streams each schema-less in-script `CREATE SOURCE` would declare,
    /// keyed by lowercased source name. The session fills this by asking
    /// the connector registry (`nexmark` declares `Person`/`Auction`/
    /// `Bid`); a standalone caller may leave it empty, in which case the
    /// analyzer assumes a single stream named after the source with an
    /// unknown schema and skips checks that need it.
    pub declared: BTreeMap<String, Vec<(String, SchemaRef)>>,
    /// Lowercased names of in-script `CREATE SOURCE`s whose connector
    /// reports it cannot replay. The session fills this by asking the
    /// connector registry; a standalone caller may leave it empty, in
    /// which case every in-script source is assumed replayable.
    pub non_replayable: BTreeSet<String>,
}

impl Default for LintContext {
    fn default() -> LintContext {
        LintContext {
            catalog: MemoryCatalog::new(),
            sources: Vec::new(),
            sinks: Vec::new(),
            pipelines: Vec::new(),
            workers: 1,
            partition_col: 0,
            declared: BTreeMap::new(),
            non_replayable: BTreeSet::new(),
        }
    }
}

/// Parse and analyze a script in one call. A parse failure becomes a
/// single `OSQL000` diagnostic spanning the whole text rather than an
/// `Err` — `EXPLAIN LINT` reports problems, it doesn't fail on them.
pub fn lint_script_text(sql: &str, ctx: &LintContext) -> Vec<Diagnostic> {
    match onesql_sql::parse_script_spanned(sql) {
        Ok(statements) => analyze_script(&statements, ctx),
        Err(err) => vec![Diagnostic {
            code: "OSQL000",
            severity: Severity::Error,
            message: err.to_string(),
            span: Span::new(0, sql.len()),
            statement: 0,
        }],
    }
}

/// Analyze a parsed script against a session seed. Pure: no connectors
/// are built, no session state is touched. Diagnostics come back in
/// statement order (end-of-script checks like dead CREATEs last).
pub fn analyze_script(script: &[SpannedStatement], ctx: &LintContext) -> Vec<Diagnostic> {
    Linter::new(ctx).run(script)
}

/// What kind of object an in-script CREATE made (for OSQL007 reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CreatedKind {
    Source,
    Sink,
    Stream,
    TemporalTable,
}

impl CreatedKind {
    fn as_str(self) -> &'static str {
        match self {
            CreatedKind::Source => "source",
            CreatedKind::Sink => "sink",
            CreatedKind::Stream => "stream",
            CreatedKind::TemporalTable => "temporal table",
        }
    }
}

#[derive(Debug, Clone)]
struct CreatedObj {
    name: String,
    kind: CreatedKind,
    span: Span,
    statement: usize,
}

/// Knob values the analyzer tracks for OSQL008. `None` means "session
/// default / unknown": contradictions only fire between *known* values.
#[derive(Debug, Clone, Copy, Default)]
struct KnobState {
    batch_size: Option<usize>,
    min_batch: Option<usize>,
    max_batch: Option<usize>,
}

/// Which batch knob a `SET` just changed (for OSQL008 pair selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChangedKnob {
    BatchSize,
    MinBatch,
    MaxBatch,
}

struct PipelineTraits {
    replayable: bool,
    /// Connectors that make the pipeline non-replayable, for messages.
    volatile: Vec<String>,
}

struct Linter {
    catalog: MemoryCatalog,
    sources: Vec<SourceSeed>,
    sinks: Vec<SinkSeed>,
    pipelines: BTreeMap<String, PipelineTraits>,
    /// First INSERT's output schema per sink (lowercased), for drift.
    sink_schemas: BTreeMap<String, (SchemaRef, usize)>,
    workers: usize,
    partition_col: usize,
    knobs: KnobState,
    declared: BTreeMap<String, Vec<(String, SchemaRef)>>,
    non_replayable: BTreeSet<String>,
    created: Vec<CreatedObj>,
    referenced: BTreeSet<String>,
    diags: Vec<Diagnostic>,
}

impl Linter {
    fn new(ctx: &LintContext) -> Linter {
        let mut pipelines = BTreeMap::new();
        for p in &ctx.pipelines {
            pipelines.insert(
                p.name.to_ascii_lowercase(),
                PipelineTraits {
                    replayable: p.replayable,
                    volatile: Vec::new(),
                },
            );
        }
        Linter {
            catalog: ctx.catalog.clone(),
            sources: ctx.sources.clone(),
            sinks: ctx.sinks.clone(),
            pipelines,
            sink_schemas: BTreeMap::new(),
            workers: ctx.workers.max(1),
            partition_col: ctx.partition_col,
            knobs: KnobState::default(),
            declared: ctx.declared.clone(),
            non_replayable: ctx.non_replayable.clone(),
            created: Vec::new(),
            referenced: BTreeSet::new(),
            diags: Vec::new(),
        }
    }

    fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        span: Span,
        idx: usize,
        msg: String,
    ) {
        self.diags.push(Diagnostic {
            code,
            severity,
            message: msg,
            span,
            statement: idx,
        });
    }

    fn run(mut self, script: &[SpannedStatement]) -> Vec<Diagnostic> {
        for (idx, spanned) in script.iter().enumerate() {
            let span = spanned.span;
            match bind_statement(&spanned.statement, &self.catalog) {
                Ok(bound) => self.visit(&bound, span, idx),
                Err(err) => {
                    self.push("OSQL000", Severity::Error, span, idx, err.to_string());
                }
            }
        }
        self.finish();
        self.diags
    }

    // -- statement dispatch -------------------------------------------------

    fn visit(&mut self, bound: &BoundStatement, span: Span, idx: usize) {
        match bound {
            BoundStatement::Query(query) | BoundStatement::Explain(query) => {
                // A bare query runs as a real pipeline, so the state and
                // sharding checks apply just as they do to an INSERT.
                self.mark_query_refs(query);
                self.check_unbounded_state(query, span, idx);
                self.check_shard_alignment(query, span, idx);
                self.check_no_event_time(query, span, idx);
            }
            BoundStatement::ExplainAnalyze(query) => {
                self.mark_query_refs(query);
                self.check_unfed_streams("EXPLAIN ANALYZE", query, span, idx);
                self.check_unbounded_state(query, span, idx);
                self.check_shard_alignment(query, span, idx);
                self.check_no_event_time(query, span, idx);
            }
            BoundStatement::ExplainLint { .. }
            | BoundStatement::ShowPipelines
            | BoundStatement::ShowTrace { .. } => {}
            BoundStatement::TracePipeline { pipeline, .. } => {
                self.referenced.insert(pipeline.to_ascii_lowercase());
            }
            BoundStatement::CreateStream { name, schema } => {
                self.catalog.register(
                    name.clone(),
                    std::sync::Arc::new(schema.clone()),
                    TableKind::Stream,
                );
                self.record_created(name, CreatedKind::Stream, span, idx);
            }
            BoundStatement::CreateTemporalTable { name, schema, .. } => {
                self.catalog.register(
                    name.clone(),
                    std::sync::Arc::new(schema.clone()),
                    TableKind::Table,
                );
                self.record_created(name, CreatedKind::TemporalTable, span, idx);
            }
            BoundStatement::CreateSource {
                name,
                partitioned,
                schema,
                options,
            } => self.visit_create_source(name, *partitioned, schema.as_ref(), options, span, idx),
            BoundStatement::CreateSink { name, options } => {
                let connector = options_str(options, "connector").unwrap_or_default();
                self.sinks.push(SinkSeed {
                    name: name.clone(),
                    connector,
                    stream: options_str(options, "stream"),
                });
                // A net sink's target stream is a deliberate reference.
                if let Some(stream) = options_str(options, "stream") {
                    self.referenced.insert(stream.to_ascii_lowercase());
                }
                self.record_created(name, CreatedKind::Sink, span, idx);
            }
            BoundStatement::Insert { sink, query } => self.visit_insert(sink, query, span, idx),
            BoundStatement::Set(knob) => self.visit_set(*knob, span, idx),
            BoundStatement::CheckpointPipeline { pipeline, .. } => {
                self.referenced.insert(pipeline.to_ascii_lowercase());
                self.check_checkpoint(pipeline, span, idx);
            }
            BoundStatement::RestorePipeline { pipeline, .. } => {
                self.referenced.insert(pipeline.to_ascii_lowercase());
            }
            BoundStatement::Drop { name, .. } => {
                // Mirror the catalog effect so later statements bind the
                // way execution would; a DROP is not a "use".
                let lowered = name.to_ascii_lowercase();
                if let Some(i) = self
                    .sources
                    .iter()
                    .position(|s| s.name.eq_ignore_ascii_case(name))
                {
                    let def = self.sources.remove(i);
                    for stream in &def.streams {
                        if !self.sources.iter().any(|s| s.streams.contains(stream)) {
                            self.catalog.remove(stream);
                        }
                    }
                }
                self.sinks.retain(|s| !s.name.eq_ignore_ascii_case(name));
                self.catalog.remove(&lowered);
            }
        }
    }

    fn visit_create_source(
        &mut self,
        name: &str,
        partitioned: bool,
        schema: Option<&onesql_types::Schema>,
        options: &ConnectorOptions,
        span: Span,
        idx: usize,
    ) {
        let connector = options_str(options, "connector").unwrap_or_default();
        let declared: Vec<(String, SchemaRef)> = match schema {
            // An inline schema declares exactly one stream, named after
            // the source.
            Some(s) => vec![(name.to_string(), std::sync::Arc::new(s.clone()))],
            None => match self.declared.get(&name.to_ascii_lowercase()) {
                Some(streams) => streams.clone(),
                // No registry verdict (the session probes connectors
                // against its *pre-script* catalog, so a source adopting
                // streams CREATEd earlier in this script resolves to
                // nothing there). Fall back to the 'streams' option: each
                // name that resolves in the evolving catalog is a stream
                // this source feeds. Anything still unknown surfaces as
                // an OSQL000 bind error on the scan — exactly what a
                // session without that connector would report.
                None => options_str(options, "streams")
                    .map(|streams| {
                        streams
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .filter_map(|s| {
                                let (schema, _) = self.catalog.resolve(s).ok()?;
                                Some((s.to_string(), schema))
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
            },
        };
        for (stream, stream_schema) in &declared {
            if self.catalog.resolve(stream).is_err() {
                self.catalog
                    .register(stream.clone(), stream_schema.clone(), TableKind::Stream);
            }
        }
        // Multi-stream sources can also *adopt* pre-declared streams via
        // the 'streams' option; adopting is a reference.
        if let Some(streams) = options_str(options, "streams") {
            for s in streams.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                self.referenced.insert(s.to_ascii_lowercase());
            }
        }
        self.sources.push(SourceSeed {
            name: name.to_string(),
            connector,
            partitioned,
            replayable: !self.non_replayable.contains(&name.to_ascii_lowercase()),
            streams: declared
                .iter()
                .map(|(s, _)| s.to_ascii_lowercase())
                .collect(),
            partitions: options_u64(options, "partitions"),
        });
        self.record_created(name, CreatedKind::Source, span, idx);
        // `SET workers` may precede the CREATE; check the new pairing here.
        if let Some(last) = self.sources.last().cloned() {
            self.check_worker_partition_pair(&last, span, idx);
        }
    }

    fn visit_insert(&mut self, sink: &str, query: &BoundQuery, span: Span, idx: usize) {
        self.referenced.insert(sink.to_ascii_lowercase());
        self.mark_query_refs(query);
        self.check_unfed_streams(&format!("INSERT INTO {sink}"), query, span, idx);
        self.check_unbounded_state(query, span, idx);
        self.check_shard_alignment(query, span, idx);
        self.check_ungated_window(sink, query, span, idx);
        self.check_no_event_time(query, span, idx);
        self.check_sink_drift(sink, query, span, idx);
        self.record_pipeline(sink, query);
    }

    fn visit_set(&mut self, knob: SessionKnob, span: Span, idx: usize) {
        match knob {
            SessionKnob::Workers(n) => {
                self.workers = n;
                self.check_worker_partitions(span, idx);
            }
            SessionKnob::PartitionCol(c) => self.partition_col = c,
            SessionKnob::BatchSize(n) => {
                self.knobs.batch_size = Some(n);
                self.check_batch_knobs(ChangedKnob::BatchSize, span, idx);
            }
            SessionKnob::MinBatch(n) => {
                self.knobs.min_batch = Some(n);
                self.check_batch_knobs(ChangedKnob::MinBatch, span, idx);
            }
            SessionKnob::MaxBatch(n) => {
                self.knobs.max_batch = Some(n);
                self.check_batch_knobs(ChangedKnob::MaxBatch, span, idx);
            }
            SessionKnob::MaxIdleRounds(_)
            | SessionKnob::CheckpointRetain(_)
            | SessionKnob::Lint(_)
            | SessionKnob::Trace(_) => {}
        }
    }

    // -- bookkeeping --------------------------------------------------------

    fn record_created(&mut self, name: &str, kind: CreatedKind, span: Span, idx: usize) {
        self.created.push(CreatedObj {
            name: name.to_ascii_lowercase(),
            kind,
            span,
            statement: idx,
        });
    }

    fn mark_query_refs(&mut self, query: &BoundQuery) {
        let (streams, tables) = referenced_relations(query);
        for name in streams.into_iter().chain(tables) {
            self.referenced.insert(name.clone());
            // Scanning a source's stream uses the source too.
            for src in &self.sources {
                if src.streams.contains(&name) {
                    self.referenced.insert(src.name.to_ascii_lowercase());
                }
            }
        }
    }

    fn record_pipeline(&mut self, sink: &str, query: &BoundQuery) {
        let (streams, _) = referenced_relations(query);
        let feeding: Vec<&SourceSeed> = self
            .sources
            .iter()
            .filter(|s| s.streams.iter().any(|st| streams.contains(st)))
            .collect();
        if feeding.is_empty() {
            return; // unfed: already reported by check_unfed_streams
        }
        let volatile: Vec<String> = feeding
            .iter()
            .filter(|s| !s.replayable)
            .map(|s| format!("{} ({})", s.name, s.connector))
            .collect();
        self.pipelines.insert(
            sink.to_ascii_lowercase(),
            PipelineTraits {
                replayable: volatile.is_empty(),
                volatile,
            },
        );
    }

    /// Streams any source feeds (lowercased) — the scans whose rows are
    /// hash-routed across workers when there are several.
    fn routed_streams(&self) -> BTreeSet<String> {
        self.sources
            .iter()
            .flat_map(|s| s.streams.iter().cloned())
            .collect()
    }

    // -- OSQL001: unbounded keyed state ------------------------------------

    fn check_unbounded_state(&mut self, query: &BoundQuery, span: Span, idx: usize) {
        let mut findings = Vec::new();
        collect_unbounded_state(&query.plan, &mut findings);
        for msg in findings {
            self.push("OSQL001", Severity::Warning, span, idx, msg);
        }
    }

    // -- OSQL002: shard-key misalignment -----------------------------------

    fn check_shard_alignment(&mut self, query: &BoundQuery, span: Span, idx: usize) {
        if self.workers <= 1 {
            return;
        }
        let routed = self.routed_streams();
        let mut findings = Vec::new();
        routed_columns(&query.plan, &routed, self.partition_col, &mut findings);
        for msg in findings {
            self.push(
                "OSQL002",
                Severity::Warning,
                span,
                idx,
                format!(
                    "{msg} — with workers = {} rows sharing a key may land on \
                     different workers, producing split or duplicated groups; \
                     align the key with the routed partition column \
                     (partition_col = {}) or SET workers = 1",
                    self.workers, self.partition_col
                ),
            );
        }
    }

    // -- OSQL003: windowed pipeline without EMIT AFTER WATERMARK -----------

    fn check_ungated_window(&mut self, sink: &str, query: &BoundQuery, span: Span, idx: usize) {
        if query.emit.after_watermark {
            return;
        }
        if let Some(what) = watermark_finalized_op(&query.plan) {
            self.push(
                "OSQL003",
                Severity::Warning,
                span,
                idx,
                format!(
                    "INSERT INTO {sink}: the query {what} but emits without \
                     AFTER WATERMARK, so the sink receives every per-row \
                     revision instead of one final row per window; add \
                     EMIT [STREAM] AFTER WATERMARK unless the sink wants \
                     the raw changelog"
                ),
            );
        }
    }

    // -- OSQL004: doomed CHECKPOINT ----------------------------------------

    fn check_checkpoint(&mut self, pipeline: &str, span: Span, idx: usize) {
        let key = pipeline.to_ascii_lowercase();
        let Some(traits) = self.pipelines.get(&key) else {
            self.push(
                "OSQL004",
                Severity::Error,
                span,
                idx,
                format!(
                    "CHECKPOINT PIPELINE {pipeline}: no such pipeline; a \
                     pipeline is named by its INSERT INTO target and must be \
                     assembled earlier in the script or adopted into the \
                     session"
                ),
            );
            return;
        };
        if !traits.replayable {
            let volatile = traits.volatile.join(", ");
            self.push(
                "OSQL004",
                Severity::Warning,
                span,
                idx,
                format!(
                    "CHECKPOINT PIPELINE {pipeline}: source(s) [{volatile}] \
                     are not replayable — the checkpoint will be written, but \
                     restoring it into a fresh instance errors because the \
                     pre-crash events exist nowhere to replay from"
                ),
            );
        }
    }

    // -- OSQL005: watermark-dependent query, no event-time column ----------

    fn check_no_event_time(&mut self, query: &BoundQuery, span: Span, idx: usize) {
        let mut findings = Vec::new();
        collect_unwatermarked_windows(&query.plan, &mut findings);
        let windows_flagged = !findings.is_empty();
        for msg in findings {
            self.push("OSQL005", Severity::Warning, span, idx, msg);
        }
        // Same root cause as an unwatermarked window — don't double-report.
        if windows_flagged {
            return;
        }
        if query.emit.after_watermark && !scans_event_time_stream(&query.plan) {
            self.push(
                "OSQL005",
                Severity::Warning,
                span,
                idx,
                "EMIT AFTER WATERMARK over source(s) with no WATERMARK FOR \
                 column: no watermark ever advances, so the gate only \
                 releases rows at end of stream (a continuous pipeline would \
                 never emit)"
                    .to_string(),
            );
        }
    }

    // -- OSQL006: sink schema drift ----------------------------------------

    fn check_sink_drift(&mut self, sink: &str, query: &BoundQuery, span: Span, idx: usize) {
        let key = sink.to_ascii_lowercase();
        let schema = query.schema();
        if let Some((prior, prior_idx)) = self.sink_schemas.get(&key) {
            if !schemas_compatible(prior, &schema) {
                self.push(
                    "OSQL006",
                    Severity::Error,
                    span,
                    idx,
                    format!(
                        "INSERT INTO {sink}: output schema ({}) differs from \
                         the schema a previous INSERT (statement {}) gave this \
                         sink ({}); a sink's consumers see one row shape",
                        render_types(&schema),
                        prior_idx + 1,
                        render_types(prior),
                    ),
                );
            }
        } else {
            self.sink_schemas.insert(key, (schema.clone(), idx));
        }
        // A net sink forwards into a named stream; if that stream is
        // declared locally, the row shapes must line up.
        let target = self
            .sinks
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(sink))
            .and_then(|s| s.stream.clone());
        if let Some(stream) = target {
            if let Ok((declared, TableKind::Stream)) = self.catalog.resolve(&stream) {
                if !schemas_compatible(&declared, &schema) {
                    self.push(
                        "OSQL006",
                        Severity::Error,
                        span,
                        idx,
                        format!(
                            "INSERT INTO {sink}: output schema ({}) does not \
                             match stream '{stream}' ({}) that the sink's \
                             'stream' option targets",
                            render_types(&schema),
                            render_types(&declared),
                        ),
                    );
                }
            }
        }
    }

    // -- OSQL007: unfed streams + dead CREATEs -----------------------------

    fn check_unfed_streams(&mut self, what: &str, query: &BoundQuery, span: Span, idx: usize) {
        let (streams, _) = referenced_relations(query);
        let unfed: Vec<&str> = streams
            .iter()
            .filter(|st| !self.sources.iter().any(|s| s.streams.contains(st)))
            .map(String::as_str)
            .collect();
        if !unfed.is_empty() {
            self.push(
                "OSQL007",
                Severity::Error,
                span,
                idx,
                format!(
                    "{what}: no CREATE SOURCE feeds the query's stream(s) \
                     [{}]; assembling the pipeline will fail",
                    unfed.join(", ")
                ),
            );
        }
    }

    fn finish(&mut self) {
        // A statement that failed to bind never marked its references, so
        // "never used" would be guesswork; report the bind errors alone.
        if self.diags.iter().any(|d| d.code == "OSQL000") {
            self.diags
                .sort_by_key(|d| (d.statement, d.span.start, d.code));
            return;
        }
        let created = std::mem::take(&mut self.created);
        for obj in created {
            if !self.referenced.contains(&obj.name) {
                self.push(
                    "OSQL007",
                    Severity::Note,
                    obj.span,
                    obj.statement,
                    format!(
                        "{} '{}' is created but never used by any later \
                         statement in the script",
                        obj.kind.as_str(),
                        obj.name
                    ),
                );
            }
        }
        // Stable order: by statement, then by span, keeping the
        // end-of-script notes next to the statements they describe.
        self.diags
            .sort_by_key(|d| (d.statement, d.span.start, d.code));
    }

    // -- OSQL008: contradictory knobs --------------------------------------

    /// Only the pairs involving the knob that just changed are checked,
    /// so a standing contradiction is reported once (at the statement
    /// completing it), not re-reported by every later unrelated SET.
    fn check_batch_knobs(&mut self, changed: ChangedKnob, span: Span, idx: usize) {
        let KnobState {
            batch_size,
            min_batch,
            max_batch,
        } = self.knobs;
        if changed != ChangedKnob::BatchSize {
            if let (Some(min), Some(max)) = (min_batch, max_batch) {
                if min > max {
                    self.push(
                        "OSQL008",
                        Severity::Warning,
                        span,
                        idx,
                        format!(
                            "SET min_batch = {min} exceeds max_batch = {max}; \
                             the adaptive batcher has an empty range and the \
                             later SET will be rejected at execution time"
                        ),
                    );
                }
            }
        }
        if changed != ChangedKnob::MinBatch {
            if let (Some(size), Some(max)) = (batch_size, max_batch) {
                if size > max {
                    self.push(
                        "OSQL008",
                        Severity::Warning,
                        span,
                        idx,
                        format!(
                            "SET batch_size = {size} exceeds max_batch = \
                             {max}; the adaptive batcher will immediately \
                             clamp the initial batch down"
                        ),
                    );
                }
            }
        }
        if changed != ChangedKnob::MaxBatch {
            if let (Some(size), Some(min)) = (batch_size, min_batch) {
                if size < min {
                    self.push(
                        "OSQL008",
                        Severity::Warning,
                        span,
                        idx,
                        format!(
                            "SET batch_size = {size} is below min_batch = \
                             {min}; the adaptive batcher will immediately \
                             raise the initial batch"
                        ),
                    );
                }
            }
        }
    }

    fn check_worker_partitions(&mut self, span: Span, idx: usize) {
        for src in self.sources.clone() {
            self.check_worker_partition_pair(&src, span, idx);
        }
    }

    fn check_worker_partition_pair(&mut self, src: &SourceSeed, span: Span, idx: usize) {
        if self.workers <= 1 {
            return;
        }
        if let Some(parts) = src.partitions {
            if src.partitioned && (self.workers as u64) > parts {
                self.push(
                    "OSQL008",
                    Severity::Warning,
                    span,
                    idx,
                    format!(
                        "SET workers = {} exceeds source '{}' partitions = \
                         {parts}; the extra workers receive no partition and \
                         sit idle",
                        self.workers, src.name
                    ),
                );
            }
        }
    }
}

// -- plan walks -------------------------------------------------------------

/// OSQL001: stateful operators whose keyed state can never be freed.
fn collect_unbounded_state(plan: &LogicalPlan, out: &mut Vec<String>) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            time_bound,
            ..
        } => {
            collect_unbounded_state(left, out);
            collect_unbounded_state(right, out);
            if time_bound.is_none() && left.is_unbounded() && right.is_unbounded() {
                out.push(
                    "stream-stream join has no time-bounded predicate: both \
                     sides' state grows without bound because no watermark \
                     ever proves a row can stop matching; bound one side's \
                     event time relative to the other's (e.g. \
                     `L.t BETWEEN R.t - INTERVAL ... AND R.t`)"
                        .to_string(),
                );
            }
        }
        LogicalPlan::Aggregate {
            input,
            event_time_key,
            ..
        } => {
            collect_unbounded_state(input, out);
            if event_time_key.is_none() && input.is_unbounded() {
                out.push(
                    "aggregate over an unbounded stream groups by no \
                     event-time column, so it runs in retraction mode and \
                     keeps every group's state forever; group by a windowed \
                     column (wstart/wend) or accept unbounded state"
                        .to_string(),
                );
            }
        }
        LogicalPlan::Distinct { input } => {
            collect_unbounded_state(input, out);
            if input.is_unbounded() {
                out.push(
                    "DISTINCT over an unbounded stream remembers every row \
                     ever seen; dedupe within windows instead"
                        .to_string(),
                );
            }
        }
        _ => {
            for child in plan.inputs() {
                collect_unbounded_state(child, out);
            }
        }
    }
}

/// OSQL002 provenance walk. Returns the output columns that still carry a
/// routed scan's partition key verbatim, and records misalignment
/// findings for stateful operators whose keys are not routed.
fn routed_columns(
    plan: &LogicalPlan,
    routed: &BTreeSet<String>,
    partition_col: usize,
    out: &mut Vec<String>,
) -> BTreeSet<usize> {
    match plan {
        LogicalPlan::Scan {
            table,
            schema,
            kind: TableKind::Stream,
            ..
        } if routed.contains(&table.to_ascii_lowercase()) => {
            if partition_col < schema.arity() {
                BTreeSet::from([partition_col])
            } else {
                BTreeSet::new()
            }
        }
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => BTreeSet::new(),
        // Filters and windows keep input columns at their indices
        // (windows append wstart/wend after them).
        LogicalPlan::Filter { input, .. } | LogicalPlan::Window { input, .. } => {
            routed_columns(input, routed, partition_col, out)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let inner = routed_columns(input, routed, partition_col, out);
            exprs
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e {
                    ScalarExpr::Column(c) if inner.contains(c) => Some(i),
                    _ => None,
                })
                .collect()
        }
        LogicalPlan::Aggregate {
            input, group_exprs, ..
        } => {
            let inner = routed_columns(input, routed, partition_col, out);
            let sharded = scans_routed(input, routed);
            let routed_keys: BTreeSet<usize> = group_exprs
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e {
                    ScalarExpr::Column(c) if inner.contains(c) => Some(i),
                    _ => None,
                })
                .collect();
            if sharded && routed_keys.is_empty() {
                out.push(
                    "aggregate over a source-fed stream groups by keys that \
                     do not include the routed partition column"
                        .to_string(),
                );
            }
            routed_keys
        }
        LogicalPlan::Join {
            left, right, equi, ..
        } => {
            let l = routed_columns(left, routed, partition_col, out);
            let r = routed_columns(right, routed, partition_col, out);
            let l_sharded = scans_routed(left, routed);
            let r_sharded = scans_routed(right, routed);
            let aligned = equi.iter().any(|(lc, rc)| l.contains(lc) && r.contains(rc));
            if l_sharded && r_sharded && !aligned {
                out.push(
                    "stream-stream join over source-fed streams has no \
                     equi-key pair on the routed partition columns"
                        .to_string(),
                );
                BTreeSet::new()
            } else {
                let offset = left.schema().arity();
                l.into_iter()
                    .chain(r.into_iter().map(|i| i + offset))
                    .collect()
            }
        }
        LogicalPlan::UnionAll { left, right } => {
            let l = routed_columns(left, routed, partition_col, out);
            let r = routed_columns(right, routed, partition_col, out);
            l.intersection(&r).copied().collect()
        }
        LogicalPlan::Distinct { input } => {
            let inner = routed_columns(input, routed, partition_col, out);
            if scans_routed(input, routed) && inner.is_empty() {
                out.push(
                    "DISTINCT over a source-fed stream keeps no routed \
                     column, so duplicates landing on different workers \
                     survive"
                        .to_string(),
                );
            }
            inner
        }
    }
}

fn scans_routed(plan: &LogicalPlan, routed: &BTreeSet<String>) -> bool {
    match plan {
        LogicalPlan::Scan {
            table,
            kind: TableKind::Stream,
            ..
        } => routed.contains(&table.to_ascii_lowercase()),
        _ => plan.inputs().iter().any(|p| scans_routed(p, routed)),
    }
}

/// OSQL003: does the plan contain an operator whose output is finalized
/// by watermarks (so emitting without the gate streams raw revisions)?
fn watermark_finalized_op(plan: &LogicalPlan) -> Option<&'static str> {
    match plan {
        LogicalPlan::Aggregate {
            input,
            event_time_key,
            ..
        } => {
            if event_time_key.is_some() {
                Some("aggregates per event-time window")
            } else {
                watermark_finalized_op(input)
            }
        }
        LogicalPlan::Window { .. } => Some("assigns event-time windows"),
        _ => plan.inputs().iter().find_map(|p| watermark_finalized_op(p)),
    }
}

/// OSQL005: windows assigned from a column no watermark tracks.
fn collect_unwatermarked_windows(plan: &LogicalPlan, out: &mut Vec<String>) {
    if let LogicalPlan::Window {
        input,
        kind,
        time_col,
        ..
    } = plan
    {
        let schema = input.schema();
        if let Ok(field) = schema.field(*time_col) {
            if !field.event_time {
                out.push(format!(
                    "{} windows are assigned from column '{}', which no \
                     WATERMARK FOR clause tracks: the windows only finalize \
                     at end of stream; declare `WATERMARK FOR {}` on the \
                     source (or window on its watermarked column)",
                    kind.name(),
                    field.name,
                    field.name,
                ));
            }
        }
    }
    for child in plan.inputs() {
        collect_unwatermarked_windows(child, out);
    }
}

fn scans_event_time_stream(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Scan {
            schema,
            kind: TableKind::Stream,
            ..
        } => !schema.event_time_columns().is_empty(),
        _ => plan.inputs().iter().any(|p| scans_event_time_stream(p)),
    }
}

// -- small helpers ----------------------------------------------------------

fn options_str(options: &ConnectorOptions, key: &str) -> Option<String> {
    match options.get(key) {
        Some(OptionValue::String(s)) => Some(s.to_ascii_lowercase()),
        _ => None,
    }
}

fn options_u64(options: &ConnectorOptions, key: &str) -> Option<u64> {
    match options.get(key) {
        Some(OptionValue::Number(n)) => n.parse().ok(),
        _ => None,
    }
}

/// Arity and column types line up (names may differ: sinks consume
/// positional rows).
fn schemas_compatible(a: &onesql_types::Schema, b: &onesql_types::Schema) -> bool {
    a.arity() == b.arity()
        && a.fields()
            .iter()
            .zip(b.fields())
            .all(|(x, y)| x.data_type == y.data_type)
}

fn render_types(schema: &onesql_types::Schema) -> String {
    let types: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{} {}", f.name, f.data_type))
        .collect();
    types.join(", ")
}
