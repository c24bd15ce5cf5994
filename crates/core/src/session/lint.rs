//! The statement walk behind `EXPLAIN LINT` and `SET lint`: a dry run of
//! a script on a copy of the session's [`Definitions`].
//!
//! Each statement binds against the copy's catalog, where execution would
//! bind it. `CREATE STREAM / TEMPORAL TABLE / SOURCE / SINK`, `DROP` and
//! the knob half of `SET` then run on the copy through the same
//! [`Definitions`] methods `Session::run_statement` calls, so a statement
//! the session would refuse is an `OSQL000` carrying the session's own
//! error, and the walk goes on past it. Queries, `INSERT`s, `EXPLAIN
//! ANALYZE` and `CHECKPOINT` / `RESTORE` are only analyzed: the checks read
//! the copy's source and sink definitions and driver configuration and
//! apply the plan walks of [`onesql_plan::lint`].

use std::collections::{BTreeMap, BTreeSet};

use onesql_plan::lint::{self as walks, Diagnostic, Severity};
use onesql_plan::statement::referenced_relations;
use onesql_plan::{bind_statement, BoundQuery, BoundStatement, Catalog, SessionKnob, TableKind};
use onesql_sql::ast::OptionValue;
use onesql_sql::{Span, SpannedStatement};
use onesql_types::{Result, Schema, SchemaRef};

use super::{Definitions, StatementResult};
use crate::connect::ConnectorRegistry;

/// An object an in-script CREATE made (for the OSQL007 dead-CREATE note).
struct Created {
    /// Lowercased name.
    name: String,
    /// `source`, `sink`, `stream` or `temporal table`.
    kind: &'static str,
    span: Span,
    statement: usize,
}

/// Batch knobs the script itself set, for OSQL008. `None` is the session
/// default or unknown: contradictions only fire between values the script
/// set.
#[derive(Debug, Clone, Copy, Default)]
struct KnobState {
    batch_size: Option<usize>,
    min_batch: Option<usize>,
    max_batch: Option<usize>,
}

pub(super) struct Linter<'a> {
    /// The dry run's copy of the session's definitions.
    defs: Definitions,
    registry: &'a ConnectorRegistry,
    /// Pipelines by lowercased id, with the non-replayable sources that
    /// feed them (`name (connector)`; empty: replayable).
    pipelines: BTreeMap<String, Vec<String>>,
    /// First INSERT's output schema per sink (lowercased), for drift.
    sink_schemas: BTreeMap<String, (SchemaRef, usize)>,
    knobs: KnobState,
    created: Vec<Created>,
    referenced: BTreeSet<String>,
    /// The statement under analysis: its span and index.
    span: Span,
    statement: usize,
    diags: Vec<Diagnostic>,
}

impl<'a> Linter<'a> {
    /// A walk over `defs`, a copy of the session's definitions, with the
    /// session's adopted pipelines (which count as replayable).
    pub(super) fn new(
        defs: Definitions,
        registry: &'a ConnectorRegistry,
        adopted: impl Iterator<Item = String>,
    ) -> Linter<'a> {
        Linter {
            defs,
            registry,
            pipelines: adopted.map(|name| (name, Vec::new())).collect(),
            sink_schemas: BTreeMap::new(),
            knobs: KnobState::default(),
            created: Vec::new(),
            referenced: BTreeSet::new(),
            span: Span::new(0, 0),
            statement: 0,
            diags: Vec::new(),
        }
    }

    /// A finding about the statement under analysis.
    fn push(&mut self, code: &'static str, severity: Severity, message: String) {
        self.diags.push(Diagnostic {
            code,
            severity,
            message,
            span: self.span,
            statement: self.statement,
        });
    }

    /// Diagnostics in statement order (end-of-script checks like dead
    /// CREATEs next to the statements they describe).
    pub(super) fn run(mut self, script: &[SpannedStatement]) -> Vec<Diagnostic> {
        for (idx, spanned) in script.iter().enumerate() {
            (self.span, self.statement) = (spanned.span, idx);
            match bind_statement(&spanned.statement, self.defs.engine.catalog()) {
                Ok(bound) => self.visit(bound),
                Err(err) => self.push("OSQL000", Severity::Error, err.to_string()),
            }
        }
        self.finish();
        self.diags
    }

    /// Whether a dry-run step succeeded; a failure is reported as the
    /// OSQL000 error execution would stop at.
    fn applied<T>(&mut self, result: Result<T>) -> bool {
        match result {
            Ok(_) => true,
            Err(err) => {
                self.push("OSQL000", Severity::Error, err.to_string());
                false
            }
        }
    }

    /// [`Linter::applied`] for a CREATE, recording what it created.
    fn created(&mut self, result: Result<StatementResult>, kind: &'static str) -> bool {
        if let Ok(StatementResult::Created(name)) = &result {
            self.created.push(Created {
                name: name.to_ascii_lowercase(),
                kind,
                span: self.span,
                statement: self.statement,
            });
        }
        self.applied(result)
    }

    // -- statement dispatch -------------------------------------------------

    fn visit(&mut self, bound: BoundStatement) {
        match bound {
            BoundStatement::Query(query) | BoundStatement::Explain(query) => {
                // A bare query runs as a real pipeline, so the state and
                // sharding checks apply just as they do to an INSERT.
                self.mark_query_refs(&query);
                self.check_query(&query);
            }
            BoundStatement::ExplainAnalyze(query) => {
                self.mark_query_refs(&query);
                self.check_unfed_streams("EXPLAIN ANALYZE", &query);
                self.check_query(&query);
            }
            BoundStatement::ExplainLint { .. }
            | BoundStatement::ShowPipelines
            | BoundStatement::ShowTrace { .. } => {}
            BoundStatement::TracePipeline { pipeline, .. }
            | BoundStatement::RestorePipeline { pipeline, .. } => {
                self.referenced.insert(pipeline.to_ascii_lowercase());
            }
            BoundStatement::CheckpointPipeline { pipeline, .. } => {
                self.referenced.insert(pipeline.to_ascii_lowercase());
                self.check_checkpoint(&pipeline);
            }
            BoundStatement::CreateStream { name, schema } => {
                let result = self.defs.create_stream(name, schema);
                self.created(result, "stream");
            }
            BoundStatement::CreateTemporalTable { name, schema, key } => {
                let result = self.defs.create_temporal_table(name, schema, key);
                self.created(result, "temporal table");
            }
            BoundStatement::CreateSource {
                name,
                partitioned,
                schema,
                options,
            } => {
                // A multi-stream source adopting pre-declared streams via
                // the 'streams' option references them.
                let adopted = options_str(options.get("streams"));
                let result =
                    self.defs
                        .create_source(self.registry, name, partitioned, schema, options);
                if self.created(result, "source") {
                    let adopted = adopted.iter().flat_map(|list| list.split(','));
                    self.referenced.extend(
                        adopted
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty()),
                    );
                }
            }
            BoundStatement::CreateSink { name, options } => {
                // A net sink's target stream is a deliberate reference.
                let target = options_str(options.get("stream"));
                let result = self.defs.create_sink(self.registry, name, options);
                if self.created(result, "sink") {
                    self.referenced.extend(target);
                }
            }
            BoundStatement::Insert { sink, query } => self.visit_insert(&sink, &query),
            BoundStatement::Set(knob) => {
                let result = self.defs.apply_knob(knob);
                if self.applied(result) {
                    self.check_knob(knob);
                }
            }
            BoundStatement::Drop {
                kind,
                if_exists,
                name,
            } => {
                // A DROP is not a "use".
                let result = self.defs.drop_object(kind, if_exists, &name);
                self.applied(result);
            }
        }
    }

    fn visit_insert(&mut self, sink: &str, query: &BoundQuery) {
        self.referenced.insert(sink.to_ascii_lowercase());
        self.mark_query_refs(query);
        self.check_unfed_streams(&format!("INSERT INTO {sink}"), query);
        self.check_query(query);
        self.check_ungated_window(sink, query);
        self.check_sink_drift(sink, query);
        self.record_pipeline(sink, query);
    }

    /// The checks every query that runs as a pipeline gets.
    fn check_query(&mut self, query: &BoundQuery) {
        self.check_unbounded_state(query);
        self.check_no_event_time(query);
    }

    // -- bookkeeping --------------------------------------------------------

    fn mark_query_refs(&mut self, query: &BoundQuery) {
        let (streams, tables) = referenced_relations(query);
        for name in streams.into_iter().chain(tables) {
            // Scanning a source's stream uses the source too.
            for src in &self.defs.sources {
                if src.streams.contains(&name) {
                    self.referenced.insert(src.name.to_ascii_lowercase());
                }
            }
            self.referenced.insert(name);
        }
    }

    fn record_pipeline(&mut self, sink: &str, query: &BoundQuery) {
        let (streams, _) = referenced_relations(query);
        let feeding = self
            .defs
            .sources
            .iter()
            .filter(|s| s.streams.iter().any(|st| streams.contains(st)));
        let mut volatile = Vec::new();
        let mut fed = false;
        for src in feeding {
            fed = true;
            if !src.replayable {
                volatile.push(format!("{} ({})", src.name, src.connector));
            }
        }
        // Unfed: already reported by check_unfed_streams.
        if fed {
            self.pipelines.insert(sink.to_ascii_lowercase(), volatile);
        }
    }

    // -- OSQL001: unbounded keyed state ------------------------------------

    fn check_unbounded_state(&mut self, query: &BoundQuery) {
        for msg in walks::unbounded_state(&query.plan) {
            self.push("OSQL001", Severity::Warning, msg);
        }
    }

    // -- OSQL003: windowed pipeline without EMIT AFTER WATERMARK -----------

    fn check_ungated_window(&mut self, sink: &str, query: &BoundQuery) {
        if query.emit.after_watermark {
            return;
        }
        if let Some(what) = walks::watermark_finalized_op(&query.plan) {
            self.push(
                "OSQL003",
                Severity::Warning,
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

    fn check_checkpoint(&mut self, pipeline: &str) {
        let Some(volatile) = self.pipelines.get(&pipeline.to_ascii_lowercase()) else {
            self.push(
                "OSQL004",
                Severity::Error,
                format!(
                    "CHECKPOINT PIPELINE {pipeline}: no such pipeline; a \
                     pipeline is named by its INSERT INTO target and must be \
                     assembled earlier in the script or adopted into the \
                     session"
                ),
            );
            return;
        };
        if !volatile.is_empty() {
            let volatile = volatile.join(", ");
            self.push(
                "OSQL004",
                Severity::Warning,
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

    fn check_no_event_time(&mut self, query: &BoundQuery) {
        let windows = walks::unwatermarked_windows(&query.plan);
        // An unwatermarked window is the same root cause: report it alone.
        if windows.is_empty()
            && query.emit.after_watermark
            && !walks::scans_event_time_stream(&query.plan)
        {
            self.push(
                "OSQL005",
                Severity::Warning,
                "EMIT AFTER WATERMARK over source(s) with no WATERMARK FOR \
                 column: no watermark ever advances, so the gate only \
                 releases rows at end of stream (a continuous pipeline would \
                 never emit)"
                    .to_string(),
            );
        }
        for msg in windows {
            self.push("OSQL005", Severity::Warning, msg);
        }
    }

    // -- OSQL006: sink schema drift ----------------------------------------

    fn check_sink_drift(&mut self, sink: &str, query: &BoundQuery) {
        let key = sink.to_ascii_lowercase();
        let schema = query.schema();
        if let Some((prior, prior_idx)) = self.sink_schemas.get(&key) {
            if !schemas_compatible(prior, &schema) {
                let message = format!(
                    "INSERT INTO {sink}: output schema ({}) differs from \
                     the schema a previous INSERT (statement {}) gave this \
                     sink ({}); a sink's consumers see one row shape",
                    render_types(&schema),
                    prior_idx + 1,
                    render_types(prior),
                );
                self.push("OSQL006", Severity::Error, message);
            }
        } else {
            self.sink_schemas
                .insert(key, (schema.clone(), self.statement));
        }
        // A net sink forwards into a named stream; if that stream is
        // declared locally, the row shapes must line up.
        let target = self
            .defs
            .find_sink(sink)
            .and_then(|i| options_str(self.defs.sinks[i].options.get("stream")));
        if let Some(stream) = target {
            if let Ok((declared, TableKind::Stream)) = self.defs.engine.catalog().resolve(&stream) {
                if !schemas_compatible(&declared, &schema) {
                    let message = format!(
                        "INSERT INTO {sink}: output schema ({}) does not \
                         match stream '{stream}' ({}) that the sink's \
                         'stream' option targets",
                        render_types(&schema),
                        render_types(&declared),
                    );
                    self.push("OSQL006", Severity::Error, message);
                }
            }
        }
    }

    // -- OSQL007: unfed streams + dead CREATEs -----------------------------

    fn check_unfed_streams(&mut self, what: &str, query: &BoundQuery) {
        let (streams, _) = referenced_relations(query);
        let unfed: Vec<&str> = streams
            .iter()
            .filter(|st| !self.defs.sources.iter().any(|s| s.streams.contains(st)))
            .map(String::as_str)
            .collect();
        if !unfed.is_empty() {
            let message = format!(
                "{what}: no CREATE SOURCE feeds the query's stream(s) \
                 [{}]; assembling the pipeline will fail",
                unfed.join(", ")
            );
            self.push("OSQL007", Severity::Error, message);
        }
    }

    fn finish(&mut self) {
        // A statement that failed never marked its references, so "never
        // used" would be guesswork; report the errors alone.
        if !self.diags.iter().any(|d| d.code == "OSQL000") {
            for obj in std::mem::take(&mut self.created) {
                if !self.referenced.contains(&obj.name) {
                    self.diags.push(Diagnostic {
                        code: "OSQL007",
                        severity: Severity::Note,
                        message: format!(
                            "{} '{}' is created but never used by any later \
                             statement in the script",
                            obj.kind, obj.name
                        ),
                        span: obj.span,
                        statement: obj.statement,
                    });
                }
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
    /// completing it), not re-reported by every later unrelated SET. An
    /// empty `min_batch` / `max_batch` range never gets here: the session
    /// refuses the SET, so its dry run already reported OSQL000.
    fn check_knob(&mut self, knob: SessionKnob) {
        let knobs = &mut self.knobs;
        match knob {
            SessionKnob::BatchSize(n) => knobs.batch_size = Some(n),
            SessionKnob::MinBatch(n) => knobs.min_batch = Some(n),
            SessionKnob::MaxBatch(n) => knobs.max_batch = Some(n),
            _ => return,
        }
        let KnobState {
            batch_size,
            min_batch,
            max_batch,
        } = *knobs;
        let Some(size) = batch_size else { return };
        let changed_min = matches!(knob, SessionKnob::MinBatch(_));
        let changed_max = matches!(knob, SessionKnob::MaxBatch(_));
        if let Some(max) = max_batch.filter(|&max| !changed_min && size > max) {
            let message = format!(
                "SET batch_size = {size} exceeds max_batch = {max}; the \
                 adaptive batcher will immediately clamp the initial batch down"
            );
            self.push("OSQL008", Severity::Warning, message);
        }
        if let Some(min) = min_batch.filter(|&min| !changed_max && size < min) {
            let message = format!(
                "SET batch_size = {size} is below min_batch = {min}; the \
                 adaptive batcher will immediately raise the initial batch"
            );
            self.push("OSQL008", Severity::Warning, message);
        }
    }
}

// -- small helpers ----------------------------------------------------------

/// A string option's value, lowercased.
fn options_str(value: Option<&OptionValue>) -> Option<String> {
    match value {
        Some(OptionValue::String(s)) => Some(s.to_ascii_lowercase()),
        _ => None,
    }
}

/// Arity and column types line up (names may differ: sinks consume
/// positional rows).
fn schemas_compatible(a: &Schema, b: &Schema) -> bool {
    a.arity() == b.arity()
        && a.fields()
            .iter()
            .zip(b.fields())
            .all(|(x, y)| x.data_type == y.data_type)
}

fn render_types(schema: &Schema) -> String {
    let types: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{} {}", f.name, f.data_type))
        .collect();
    types.join(", ")
}
