//! Statement-level binding: connector DDL and pipeline assembly.
//!
//! Queries bind through [`crate::bind`]; this module lifts the same
//! treatment to the statement layer. DDL schemas are built and validated
//! here (duplicate columns, `WATERMARK FOR` referencing a real timestamp
//! column), `WITH` option bags are normalized (lowercased keys, duplicate
//! keys rejected), and the queries inside `INSERT` / `EXPLAIN` bind and
//! optimize against the persistent catalog exactly as standalone queries
//! do. Connector semantics — which options a `file` source understands —
//! stay with the connector factories in `onesql_core::connect::registry`;
//! binding only guarantees the statement is *structurally* sound.

use std::collections::BTreeSet;

use onesql_sql::ast::{ColumnDef, DropKind, OptionValue, Statement, WithOption};
use onesql_types::{DataType, Error, Field, Result, Schema};

use onesql_sql::ast::LintTarget;

use crate::catalog::Catalog;
use crate::lint::LintMode;
use crate::optimizer::optimize;
use crate::plan::{BoundQuery, LogicalPlan};
use crate::TableKind;

/// A normalized `WITH` option bag: keys lowercased, duplicates rejected,
/// insertion order preserved. Interpretation (which keys mean what) is the
/// connector factory's job; see `OptionBag` in `onesql_core`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConnectorOptions {
    pairs: Vec<(String, OptionValue)>,
}

impl ConnectorOptions {
    /// Normalize raw `WITH` options. Errors on duplicate keys
    /// (case-insensitively).
    pub fn new(options: &[WithOption]) -> Result<ConnectorOptions> {
        let mut pairs: Vec<(String, OptionValue)> = Vec::with_capacity(options.len());
        for opt in options {
            let key = opt.key.to_ascii_lowercase();
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(Error::plan(format!(
                    "duplicate WITH option '{key}' (each key may appear once)"
                )));
            }
            pairs.push((key, opt.value.clone()));
        }
        Ok(ConnectorOptions { pairs })
    }

    /// The `(key, value)` pairs, keys lowercased, in declaration order.
    pub fn pairs(&self) -> &[(String, OptionValue)] {
        &self.pairs
    }

    /// Look up a key's value.
    pub fn get(&self, key: &str) -> Option<&OptionValue> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A statement after binding: schemas built, options normalized, queries
/// bound and optimized.
#[derive(Debug, Clone)]
pub enum BoundStatement {
    /// A bare query, bound.
    Query(BoundQuery),
    /// `CREATE [PARTITIONED] SOURCE`.
    CreateSource {
        /// Source name (verbatim).
        name: String,
        /// Build a partitioned source.
        partitioned: bool,
        /// The inline schema, if one was declared.
        schema: Option<Schema>,
        /// Normalized options.
        options: ConnectorOptions,
    },
    /// `CREATE SINK`.
    CreateSink {
        /// Sink name (verbatim).
        name: String,
        /// Normalized options.
        options: ConnectorOptions,
    },
    /// `CREATE STREAM`: a bare schema declaration.
    CreateStream {
        /// Stream name (verbatim).
        name: String,
        /// The declared schema.
        schema: Schema,
    },
    /// `CREATE TEMPORAL TABLE`.
    CreateTemporalTable {
        /// Table name (verbatim).
        name: String,
        /// The declared schema.
        schema: Schema,
        /// Upsert key column indices (from the `key` option; empty for a
        /// keyless bag-of-versions table).
        key: Vec<usize>,
    },
    /// `INSERT INTO <sink> <query>`.
    Insert {
        /// Target sink name (verbatim; existence is checked by the
        /// session, which owns sink definitions).
        sink: String,
        /// The bound, optimized query.
        query: BoundQuery,
    },
    /// `EXPLAIN <query>`.
    Explain(BoundQuery),
    /// `EXPLAIN ANALYZE <query>`: run the query over the session's
    /// sources and report plan plus execution metrics.
    ExplainAnalyze(BoundQuery),
    /// `EXPLAIN LINT ...`: run the static analyzer over `script` (for the
    /// single-statement form, the statement's canonical SQL text) and
    /// report diagnostics. The script is *not* bound here — the session
    /// lints it statement by statement against an evolving catalog
    /// snapshot, exactly as execution would bind it.
    ExplainLint {
        /// The SQL script text to lint; diagnostics carry spans into it.
        script: String,
    },
    /// `SHOW PIPELINES`: render live metrics for the session's pipelines.
    ShowPipelines,
    /// `SHOW TRACE [FOR '<pipeline>'] [LIMIT n]`: render captured spans.
    ShowTrace {
        /// Restrict to the named pipeline's stitched trace.
        pipeline: Option<String>,
        /// Keep only the most recent `n` records.
        limit: Option<u64>,
    },
    /// `TRACE PIPELINE <id> TO '<path>'`: export a pipeline's stitched
    /// trace as Chrome trace-event JSON.
    TracePipeline {
        /// Pipeline label whose trace to export.
        pipeline: String,
        /// Output file path.
        path: String,
    },
    /// `SET <knob> = <value>`, validated to a typed knob.
    Set(SessionKnob),
    /// `CHECKPOINT PIPELINE <id> TO '<path>'`.
    CheckpointPipeline {
        /// Pipeline id (the `INSERT INTO` target), verbatim.
        pipeline: String,
        /// Checkpoint-store directory.
        path: String,
    },
    /// `RESTORE PIPELINE <id> FROM '<path>'`.
    RestorePipeline {
        /// Pipeline id (the `INSERT INTO` target), verbatim.
        pipeline: String,
        /// Checkpoint-store directory.
        path: String,
    },
    /// `DROP ...` (no binding needed beyond the parse).
    Drop {
        /// What kind of object.
        kind: DropKind,
        /// Tolerate absence.
        if_exists: bool,
        /// Object name (verbatim).
        name: String,
    },
}

/// A validated session knob assignment from a `SET` statement. The
/// binder owns the knob vocabulary and type checking; the session only
/// has to apply a well-typed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKnob {
    /// `SET workers = N` — query workers for later `INSERT`s.
    Workers(usize),
    /// `SET batch_size = N` — events per source poll (initial size when
    /// adaptive batching is on).
    BatchSize(usize),
    /// `SET min_batch = N` — adaptive lower bound.
    MinBatch(usize),
    /// `SET max_batch = N` — adaptive upper bound.
    MaxBatch(usize),
    /// `SET max_idle_rounds = N` — error a run after N all-idle rounds
    /// (0 disables the limit: yield and keep spinning).
    MaxIdleRounds(u64),
    /// `SET checkpoint_retain = K` — epochs a checkpoint store keeps.
    CheckpointRetain(usize),
    /// `SET lint = 'strict'|'warn'|'off'` — how `execute_script` treats
    /// lint diagnostics.
    Lint(LintMode),
    /// `SET trace = 'on'|'off'|'sample=N'` — flight-recorder tracing.
    Trace(TraceMode),
}

/// The tracing states `SET trace = ...` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Tracing disabled (the default): one atomic load per call site.
    Off,
    /// Record every root span.
    On,
    /// Record one in every `N` root spans (children follow their root's
    /// decision, so sampled trees stay complete).
    Sample(u64),
}

impl TraceMode {
    /// Parse the `SET trace` value: `on`, `off`, or `sample=N`.
    pub fn parse(mode: &str) -> Result<TraceMode> {
        let mode = mode.trim().to_ascii_lowercase();
        match mode.as_str() {
            "on" => Ok(TraceMode::On),
            "off" => Ok(TraceMode::Off),
            _ => {
                if let Some(n) = mode.strip_prefix("sample=") {
                    let n = n
                        .trim()
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            Error::plan(format!(
                                "SET trace: sample divisor must be a positive \
                                 integer, got '{n}'"
                            ))
                        })?;
                    Ok(TraceMode::Sample(n))
                } else {
                    Err(Error::plan(format!(
                        "SET trace: expected 'on', 'off', or 'sample=N', got '{mode}'"
                    )))
                }
            }
        }
    }
}

impl SessionKnob {
    /// The canonical knob name, as written in `SET <name> = ...`.
    pub fn name(self) -> &'static str {
        match self {
            SessionKnob::Workers(_) => "workers",
            SessionKnob::BatchSize(_) => "batch_size",
            SessionKnob::MinBatch(_) => "min_batch",
            SessionKnob::MaxBatch(_) => "max_batch",
            SessionKnob::MaxIdleRounds(_) => "max_idle_rounds",
            SessionKnob::CheckpointRetain(_) => "checkpoint_retain",
            SessionKnob::Lint(_) => "lint",
            SessionKnob::Trace(_) => "trace",
        }
    }
}

/// The knob names `SET` accepts, for error messages.
const KNOBS: [&str; 8] = [
    "workers",
    "batch_size",
    "min_batch",
    "max_batch",
    "max_idle_rounds",
    "checkpoint_retain",
    "lint",
    "trace",
];

/// Validate a `SET` statement's knob name and value type.
fn bind_set(name: &str, value: &OptionValue) -> Result<SessionKnob> {
    let knob = name.to_ascii_lowercase();
    let uint = |what: &str| -> Result<u64> {
        let OptionValue::Number(n) = value else {
            return Err(Error::plan(format!(
                "SET {knob}: expected {what}, got {value}"
            )));
        };
        n.parse::<u64>()
            .map_err(|_| Error::plan(format!("SET {knob}: expected {what}, got {n}")))
    };
    let positive = |what: &str| -> Result<usize> {
        let n = uint(what)?;
        if n == 0 {
            return Err(Error::plan(format!(
                "SET {knob}: {what} must be at least 1"
            )));
        }
        Ok(n as usize)
    };
    match knob.as_str() {
        "workers" => Ok(SessionKnob::Workers(positive("a worker count")?)),
        "batch_size" => Ok(SessionKnob::BatchSize(positive("a batch size")?)),
        "min_batch" => Ok(SessionKnob::MinBatch(positive("a batch size")?)),
        "max_batch" => Ok(SessionKnob::MaxBatch(positive("a batch size")?)),
        "max_idle_rounds" => Ok(SessionKnob::MaxIdleRounds(uint("a round count")?)),
        "checkpoint_retain" => Ok(SessionKnob::CheckpointRetain(positive("an epoch count")?)),
        "lint" => {
            let OptionValue::String(mode) = value else {
                return Err(Error::plan(format!(
                    "SET lint: expected 'strict', 'warn', or 'off', got {value}"
                )));
            };
            Ok(SessionKnob::Lint(LintMode::parse(mode)?))
        }
        "trace" => {
            let OptionValue::String(mode) = value else {
                return Err(Error::plan(format!(
                    "SET trace: expected 'on', 'off', or 'sample=N', got {value}"
                )));
            };
            Ok(SessionKnob::Trace(TraceMode::parse(mode)?))
        }
        _ => Err(Error::plan(format!(
            "SET {knob}: unknown session knob (known knobs: {})",
            KNOBS.join(", ")
        ))),
    }
}

/// Bind one statement against `catalog`.
pub fn bind_statement(stmt: &Statement, catalog: &dyn Catalog) -> Result<BoundStatement> {
    match stmt {
        Statement::Query(q) => Ok(BoundStatement::Query(optimize(crate::bind(q, catalog)?))),
        Statement::Explain(q) => Ok(BoundStatement::Explain(optimize(crate::bind(q, catalog)?))),
        Statement::ExplainAnalyze(q) => Ok(BoundStatement::ExplainAnalyze(optimize(crate::bind(
            q, catalog,
        )?))),
        Statement::ExplainLint(target) => Ok(BoundStatement::ExplainLint {
            script: match target {
                // Canonical text: spans in the diagnostics refer to it,
                // and the session echoes it back alongside them.
                LintTarget::Statement(inner) => inner.to_string(),
                LintTarget::Script(script) => script.clone(),
            },
        }),
        Statement::ShowPipelines => Ok(BoundStatement::ShowPipelines),
        Statement::ShowTrace { pipeline, limit } => Ok(BoundStatement::ShowTrace {
            pipeline: pipeline.clone(),
            limit: *limit,
        }),
        Statement::TracePipeline { pipeline, path } => Ok(BoundStatement::TracePipeline {
            pipeline: pipeline.clone(),
            path: path.clone(),
        }),
        Statement::Insert { sink, query } => Ok(BoundStatement::Insert {
            sink: sink.clone(),
            query: optimize(crate::bind(query, catalog)?),
        }),
        Statement::CreateSource(c) => {
            let schema = if c.columns.is_empty() {
                if let Some(wm) = &c.watermark {
                    return Err(Error::plan(format!(
                        "source '{}': WATERMARK FOR {wm} needs an inline column list",
                        c.name
                    )));
                }
                None
            } else {
                Some(build_schema(&c.name, &c.columns, c.watermark.as_deref())?)
            };
            Ok(BoundStatement::CreateSource {
                name: c.name.clone(),
                partitioned: c.partitioned,
                schema,
                options: ConnectorOptions::new(&c.options)?,
            })
        }
        Statement::CreateSink(c) => Ok(BoundStatement::CreateSink {
            name: c.name.clone(),
            options: ConnectorOptions::new(&c.options)?,
        }),
        Statement::CreateStream(c) => Ok(BoundStatement::CreateStream {
            name: c.name.clone(),
            schema: build_schema(&c.name, &c.columns, c.watermark.as_deref())?,
        }),
        Statement::CreateTemporalTable(c) => {
            let schema = build_schema(&c.name, &c.columns, None)?;
            let options = ConnectorOptions::new(&c.options)?;
            let mut key = Vec::new();
            for (k, v) in options.pairs() {
                if k != "key" {
                    return Err(Error::plan(format!(
                        "temporal table '{}': unknown option '{k}' \
                         (the only option is key='col[,col]')",
                        c.name
                    )));
                }
                let OptionValue::String(cols) = v else {
                    return Err(Error::plan(format!(
                        "temporal table '{}': option 'key' expects a string \
                         of comma-separated column names",
                        c.name
                    )));
                };
                for col in cols.split(',').map(str::trim).filter(|c| !c.is_empty()) {
                    key.push(schema.index_of(None, col).map_err(|_| {
                        Error::plan(format!(
                            "temporal table '{}': key column '{col}' is not in \
                             the column list",
                            c.name
                        ))
                    })?);
                }
            }
            Ok(BoundStatement::CreateTemporalTable {
                name: c.name.clone(),
                schema,
                key,
            })
        }
        Statement::Set { name, value } => Ok(BoundStatement::Set(bind_set(name, value)?)),
        Statement::CheckpointPipeline { pipeline, path } => {
            if path.is_empty() {
                return Err(Error::plan(format!(
                    "CHECKPOINT PIPELINE {pipeline}: the TO path is empty"
                )));
            }
            Ok(BoundStatement::CheckpointPipeline {
                pipeline: pipeline.clone(),
                path: path.clone(),
            })
        }
        Statement::RestorePipeline { pipeline, path } => {
            if path.is_empty() {
                return Err(Error::plan(format!(
                    "RESTORE PIPELINE {pipeline}: the FROM path is empty"
                )));
            }
            Ok(BoundStatement::RestorePipeline {
                pipeline: pipeline.clone(),
                path: path.clone(),
            })
        }
        Statement::Drop {
            kind,
            if_exists,
            name,
        } => Ok(BoundStatement::Drop {
            kind: *kind,
            if_exists: *if_exists,
            name: name.clone(),
        }),
    }
}

/// Build and validate a DDL schema: no duplicate columns, and a
/// `WATERMARK FOR` column that exists and is a `TIMESTAMP` (it becomes the
/// schema's event-time column, the paper's Extension 1).
pub fn build_schema(
    relation: &str,
    columns: &[ColumnDef],
    watermark: Option<&str>,
) -> Result<Schema> {
    let mut seen = BTreeSet::new();
    for col in columns {
        if !seen.insert(col.name.to_ascii_lowercase()) {
            return Err(Error::plan(format!(
                "relation '{relation}': duplicate column '{}'",
                col.name
            )));
        }
    }
    let mut fields: Vec<Field> = columns
        .iter()
        .map(|c| Field::new(&c.name, c.data_type))
        .collect();
    if let Some(wm) = watermark {
        let idx = columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(wm))
            .ok_or_else(|| {
                Error::plan(format!(
                    "relation '{relation}': WATERMARK FOR {wm} names a column \
                     that is not in the column list"
                ))
            })?;
        if columns[idx].data_type != DataType::Timestamp {
            return Err(Error::plan(format!(
                "relation '{relation}': WATERMARK FOR {wm} requires a TIMESTAMP \
                 column, but '{wm}' is {}",
                columns[idx].data_type
            )));
        }
        fields[idx] = Field::event_time(&columns[idx].name);
    }
    Ok(Schema::new(fields))
}

/// The catalog relations a bound query scans, lowercased and
/// deduplicated, split by kind. The session uses the stream list to pick
/// which source definitions feed an `INSERT`.
pub fn referenced_relations(query: &BoundQuery) -> (Vec<String>, Vec<String>) {
    let (mut streams, mut tables) = (BTreeSet::new(), BTreeSet::new());
    for node in query.plan.nodes() {
        if let LogicalPlan::Scan { table, kind, .. } = node {
            let names = match kind {
                TableKind::Stream => &mut streams,
                TableKind::Table => &mut tables,
            };
            names.insert(table.to_ascii_lowercase());
        }
    }
    (streams.into_iter().collect(), tables.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryCatalog;
    use onesql_sql::parse_statement;
    use std::sync::Arc;

    fn catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.register(
            "Bid",
            Arc::new(Schema::new(vec![
                Field::event_time("bidtime"),
                Field::new("price", DataType::Int),
            ])),
            TableKind::Stream,
        );
        cat.register(
            "Category",
            Arc::new(Schema::new(vec![Field::new("id", DataType::Int)])),
            TableKind::Table,
        );
        cat
    }

    fn bind_text(sql: &str) -> Result<BoundStatement> {
        bind_statement(&parse_statement(sql).unwrap(), &catalog())
    }

    #[test]
    fn create_source_builds_event_time_schema() {
        let b = bind_text(
            "CREATE SOURCE S (t TIMESTAMP, v INT, WATERMARK FOR t) WITH (connector = 'x')",
        )
        .unwrap();
        let BoundStatement::CreateSource {
            schema: Some(schema),
            partitioned,
            ..
        } = b
        else {
            panic!("expected CreateSource with schema")
        };
        assert!(!partitioned);
        assert_eq!(schema.arity(), 2);
        assert!(schema.fields()[0].event_time);
        assert!(!schema.fields()[1].event_time);
    }

    #[test]
    fn watermark_validation() {
        let err = bind_text("CREATE SOURCE S (t TIMESTAMP, WATERMARK FOR nope) WITH ()")
            .unwrap_err()
            .to_string();
        assert!(err.contains("not in the column list"), "{err}");
        let err = bind_text("CREATE SOURCE S (v INT, WATERMARK FOR v) WITH ()")
            .unwrap_err()
            .to_string();
        assert!(err.contains("TIMESTAMP"), "{err}");
        let err = bind_text("CREATE SOURCE S WITH ()").unwrap();
        assert!(matches!(
            err,
            BoundStatement::CreateSource { schema: None, .. }
        ));
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = bind_text("CREATE STREAM S (x INT, X STRING)")
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate column 'X'"), "{err}");
    }

    #[test]
    fn duplicate_with_keys_rejected() {
        let err = bind_text("CREATE SINK s WITH (path = 'a', PATH = 'b')")
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate WITH option 'path'"), "{err}");
    }

    #[test]
    fn temporal_table_key_resolution() {
        let b = bind_text(
            "CREATE TEMPORAL TABLE Rates (currency STRING, rate INT) WITH (key = 'currency')",
        )
        .unwrap();
        let BoundStatement::CreateTemporalTable { key, .. } = b else {
            panic!()
        };
        assert_eq!(key, vec![0]);
        let err = bind_text("CREATE TEMPORAL TABLE R (a INT) WITH (key = 'b')")
            .unwrap_err()
            .to_string();
        assert!(err.contains("key column 'b'"), "{err}");
        let err = bind_text("CREATE TEMPORAL TABLE R (a INT) WITH (kye = 'a')")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown option 'kye'"), "{err}");
    }

    #[test]
    fn insert_binds_query_against_catalog() {
        let sql = "INSERT INTO out SELECT price FROM Bid WHERE price > 2";
        let BoundStatement::Insert { sink, query } = bind_text(sql).unwrap() else {
            panic!()
        };
        assert_eq!(sink, "out");
        assert_eq!(query.schema().arity(), 1);
        // The statement's canonical text must rebind to the same plan.
        let canonical = parse_statement(sql).unwrap().to_string();
        let BoundStatement::Insert { query: q2, .. } = bind_text(&canonical).unwrap() else {
            panic!()
        };
        assert_eq!(query.plan, q2.plan);

        assert!(bind_text("INSERT INTO out SELECT nope FROM Bid").is_err());
    }

    #[test]
    fn set_knobs_validate_name_and_type() {
        let b = bind_text("SET workers = 4").unwrap();
        assert!(matches!(b, BoundStatement::Set(SessionKnob::Workers(4))));
        let b = bind_text("SET checkpoint_retain = 5").unwrap();
        assert!(matches!(
            b,
            BoundStatement::Set(SessionKnob::CheckpointRetain(5))
        ));
        let b = bind_text("SET max_idle_rounds = 0").unwrap();
        assert!(matches!(
            b,
            BoundStatement::Set(SessionKnob::MaxIdleRounds(0))
        ));

        let err = bind_text("SET workres = 4").unwrap_err().to_string();
        assert!(err.contains("unknown session knob"), "{err}");
        assert!(err.contains("workers"), "lists the vocabulary: {err}");
        // The plan derives the routing key: no knob sets it.
        let err = bind_text(concat!("SET partition", "_col = 0")).unwrap_err();
        assert!(err.to_string().contains("unknown session knob"), "{err}");
        let err = bind_text("SET workers = 0").unwrap_err().to_string();
        assert!(err.contains("at least 1"), "{err}");
        let err = bind_text("SET workers = 'four'").unwrap_err().to_string();
        assert!(err.contains("expected a worker count"), "{err}");
        let err = bind_text("SET batch_size = -3").unwrap_err().to_string();
        assert!(err.contains("expected a batch size"), "{err}");
    }

    #[test]
    fn checkpoint_restore_bind_and_reject_empty_paths() {
        let b = bind_text("CHECKPOINT PIPELINE out TO '/tmp/c'").unwrap();
        assert!(matches!(b, BoundStatement::CheckpointPipeline { .. }));
        let b = bind_text("RESTORE PIPELINE out FROM '/tmp/c'").unwrap();
        assert!(matches!(b, BoundStatement::RestorePipeline { .. }));
        let err = bind_text("CHECKPOINT PIPELINE out TO ''")
            .unwrap_err()
            .to_string();
        assert!(err.contains("path is empty"), "{err}");
        let err = bind_text("RESTORE PIPELINE out FROM ''")
            .unwrap_err()
            .to_string();
        assert!(err.contains("path is empty"), "{err}");
    }

    #[test]
    fn referenced_relations_split_by_kind() {
        let BoundStatement::Query(q) =
            bind_text("SELECT price FROM Bid B JOIN Category C ON B.price = C.id").unwrap()
        else {
            panic!()
        };
        let (streams, tables) = referenced_relations(&q);
        assert_eq!(streams, vec!["bid".to_string()]);
        assert_eq!(tables, vec!["category".to_string()]);
    }
}
