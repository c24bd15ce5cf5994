//! Abstract syntax tree for the onesql dialect.
//!
//! Every node implements `Display`, producing canonical SQL that reparses to
//! the same tree (property-tested in the parser module). The planner in
//! `onesql-plan` consumes these types.

use std::fmt;

use onesql_types::DataType;

/// A top-level statement: a query, connector DDL, or a pipeline
/// assembly (`INSERT INTO <sink> SELECT ...`).
///
/// Queries cover the paper's SQL surface; the statement layer extends it
/// so the *topology* — which connectors feed which streams, and where
/// the output goes — is part of the SQL text too, instead of imperative
/// Rust wiring.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A bare query.
    Query(Query),
    /// `CREATE [PARTITIONED] SOURCE <name> [(<columns>[, WATERMARK FOR c])] WITH (...)`.
    CreateSource(CreateSource),
    /// `CREATE SINK <name> WITH (...)`.
    CreateSink(CreateSink),
    /// `CREATE STREAM <name> (<columns>[, WATERMARK FOR c])`: a schema
    /// declaration with no connector attached (e.g. for multi-stream
    /// sources that reference pre-declared streams).
    CreateStream(CreateStream),
    /// `CREATE TEMPORAL TABLE <name> (<columns>) [WITH (key='...')]`.
    CreateTemporalTable(CreateTemporalTable),
    /// `INSERT INTO <sink> <query>`: assemble a pipeline from the
    /// query's sources into the named sink.
    Insert {
        /// The target sink (from a prior `CREATE SINK`).
        sink: String,
        /// The query whose output changelog feeds the sink.
        query: Query,
    },
    /// `EXPLAIN <query>`: render the optimized plan.
    Explain(Query),
    /// `EXPLAIN ANALYZE <query>`: run the query to completion over the
    /// session's sources and render its plan plus execution metrics.
    ExplainAnalyze(Query),
    /// `EXPLAIN LINT <statement | '<script>'>`: run the static pipeline
    /// analyzer and report diagnostics instead of executing anything.
    ExplainLint(LintTarget),
    /// `SHOW PIPELINES`: render live metrics rows for every pipeline the
    /// session holds.
    ShowPipelines,
    /// `SHOW TRACE [FOR '<pipeline>'] [LIMIT n]`: render the flight
    /// recorder's captured spans, optionally stitched to one pipeline's
    /// trace and capped to the most recent `n`.
    ShowTrace {
        /// Restrict to spans reachable from this pipeline's trace
        /// (case-insensitive label match plus wire-carried parent links).
        pipeline: Option<String>,
        /// Keep only the most recent `n` records.
        limit: Option<u64>,
    },
    /// `TRACE PIPELINE <id> TO '<path>'`: export the named pipeline's
    /// stitched trace as Chrome trace-event JSON (loadable in
    /// `chrome://tracing` / Perfetto).
    TracePipeline {
        /// The pipeline label whose trace to export.
        pipeline: String,
        /// Output file path for the JSON.
        path: String,
    },
    /// `SET <knob> = <value>`: a session knob assignment (worker count,
    /// partition column, batch bounds, ...), so scripts are fully
    /// self-contained instead of leaning on imperative setters.
    Set {
        /// Knob name (an identifier; validated by the binder).
        name: String,
        /// The assigned value.
        value: OptionValue,
    },
    /// `CHECKPOINT PIPELINE <id> TO '<path>'`: persist a consistent
    /// snapshot of the named running pipeline into a durable
    /// checkpoint-store directory.
    CheckpointPipeline {
        /// The pipeline id (the `INSERT INTO` target that assembled it).
        pipeline: String,
        /// Checkpoint-store directory path.
        path: String,
    },
    /// `RESTORE PIPELINE <id> FROM '<path>'`: load the newest durable
    /// checkpoint from the store and resume the named (freshly
    /// assembled) pipeline from it.
    RestorePipeline {
        /// The pipeline id (the `INSERT INTO` target that assembled it).
        pipeline: String,
        /// Checkpoint-store directory path.
        path: String,
    },
    /// `DROP SOURCE|SINK|STREAM|TABLE [IF EXISTS] <name>`.
    Drop {
        /// What kind of object to drop.
        kind: DropKind,
        /// Tolerate a missing object.
        if_exists: bool,
        /// The object name.
        name: String,
    },
}

/// What `EXPLAIN LINT` analyzes.
#[derive(Debug, Clone, PartialEq)]
pub enum LintTarget {
    /// A single statement, analyzed in the current session context.
    Statement(Box<Statement>),
    /// A whole `'quoted'` SQL script, analyzed statement by statement.
    Script(String),
}

/// One column of a DDL schema: `name TYPE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
}

/// The value of a `WITH` option.
#[derive(Debug, Clone, PartialEq)]
pub enum OptionValue {
    /// A `'quoted'` string.
    String(String),
    /// A numeric literal, verbatim.
    Number(String),
    /// `TRUE` / `FALSE`.
    Bool(bool),
}

/// One `key = value` pair of a `WITH (...)` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct WithOption {
    /// Option key (an identifier, matched case-insensitively downstream).
    pub key: String,
    /// Option value.
    pub value: OptionValue,
}

/// `CREATE [PARTITIONED] SOURCE`: declare a connector feeding one stream
/// (inline schema) or several pre-declared streams (via a `streams`
/// option, connector-dependent).
#[derive(Debug, Clone, PartialEq)]
pub struct CreateSource {
    /// Source (and, with an inline schema, stream) name.
    pub name: String,
    /// `PARTITIONED`: the connector must build a partitioned source.
    pub partitioned: bool,
    /// Inline schema columns; empty when the connector defines (or
    /// references) its streams itself.
    pub columns: Vec<ColumnDef>,
    /// `WATERMARK FOR <col>`: the event-time column.
    pub watermark: Option<String>,
    /// The connector option bag (`connector='file'`, `path=...`, ...).
    pub options: Vec<WithOption>,
}

/// `CREATE SINK <name> WITH (...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateSink {
    /// Sink name (the `INSERT INTO` target).
    pub name: String,
    /// The connector option bag.
    pub options: Vec<WithOption>,
}

/// `CREATE STREAM <name> (<columns>[, WATERMARK FOR c])`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateStream {
    /// Stream name.
    pub name: String,
    /// Schema columns.
    pub columns: Vec<ColumnDef>,
    /// `WATERMARK FOR <col>`: the event-time column.
    pub watermark: Option<String>,
}

/// `CREATE TEMPORAL TABLE <name> (<columns>) [WITH (key='...')]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTemporalTable {
    /// Table name.
    pub name: String,
    /// Schema columns.
    pub columns: Vec<ColumnDef>,
    /// Options (`key='col[,col]'` selects the upsert key columns).
    pub options: Vec<WithOption>,
}

/// Object kinds a `DROP` statement can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// A connector registered by `CREATE SOURCE`.
    Source,
    /// A connector registered by `CREATE SINK`.
    Sink,
    /// A stream schema.
    Stream,
    /// A (temporal) table.
    Table,
}

impl DropKind {
    /// Canonical SQL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            DropKind::Source => "SOURCE",
            DropKind::Sink => "SINK",
            DropKind::Stream => "STREAM",
            DropKind::Table => "TABLE",
        }
    }
}

/// A complete query: a set expression with optional `ORDER BY`, `LIMIT`,
/// and the paper's `EMIT` materialization clause (Extensions 4–7).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The query body (`SELECT ...` or a `UNION ALL` tree).
    pub body: SetExpr,
    /// `ORDER BY` items (table-rendering only; a streamed changelog is
    /// inherently ordered by processing time).
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
    /// `EMIT` clause controlling materialization.
    pub emit: Option<Emit>,
}

/// Body of a query: a plain select or a bag union.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// A `SELECT` block.
    Select(Box<Select>),
    /// `UNION ALL` of two bodies.
    UnionAll(Box<SetExpr>, Box<SetExpr>),
}

/// A `SELECT` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// `FROM` items; multiple items form an implicit cross join.
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

/// One item of a projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`, if given.
        alias: Option<String>,
    },
}

/// A table reference in `FROM`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table or stream, optionally `AS OF SYSTEM TIME <expr>`.
    Table {
        /// Catalog name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
        /// Temporal-table snapshot time (§6.1).
        as_of: Option<Expr>,
    },
    /// A parenthesized subquery with a required alias.
    Derived {
        /// The subquery.
        query: Box<Query>,
        /// The alias naming the derived relation.
        alias: String,
    },
    /// A table-valued function call, e.g. `Tumble(...)` (Extension 3).
    TableFunction {
        /// The call.
        call: TvfCall,
        /// Optional alias.
        alias: Option<String>,
    },
    /// An explicit `JOIN`.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// `ON` condition (`None` only for `CROSS JOIN`).
        on: Option<Expr>,
    },
}

impl TableRef {
    /// The alias under which this relation's columns are visible, if any.
    pub fn visible_alias(&self) -> Option<&str> {
        match self {
            TableRef::Table { alias, name, .. } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Derived { alias, .. } => Some(alias),
            TableRef::TableFunction { alias, .. } => alias.as_deref(),
            TableRef::Join { .. } => None,
        }
    }
}

/// A table-valued function invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TvfCall {
    /// Function name (`Tumble`, `Hop`, `Session`, ...).
    pub name: String,
    /// Arguments, possibly named with `=>`.
    pub args: Vec<TvfArg>,
}

/// One TVF argument.
#[derive(Debug, Clone, PartialEq)]
pub struct TvfArg {
    /// Parameter name for `name => value` syntax.
    pub name: Option<String>,
    /// The argument value.
    pub value: TvfArgValue,
}

/// The value of a TVF argument.
#[derive(Debug, Clone, PartialEq)]
pub enum TvfArgValue {
    /// A table parameter: `TABLE(Bid)` or `TABLE Bid`.
    Table(Box<TableRef>),
    /// A column descriptor: `DESCRIPTOR(bidtime)`.
    Descriptor(String),
    /// A scalar expression (e.g. `INTERVAL '10' MINUTES`).
    Scalar(Expr),
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN ... ON`.
    Inner,
    /// `LEFT [OUTER] JOIN ... ON`.
    Left,
    /// `CROSS JOIN`.
    Cross,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Sort expression.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// The `EMIT` clause (paper §6.5).
///
/// Grammar: `EMIT [STREAM] [AFTER WATERMARK] [AFTER DELAY <interval>]`,
/// where at least one modifier must be present, and `AFTER WATERMARK AND
/// AFTER DELAY d` combines both (Extension 7).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Emit {
    /// `EMIT STREAM`: materialize the changelog (Extension 4).
    pub stream: bool,
    /// `AFTER WATERMARK`: only materialize complete rows (Extension 5).
    pub after_watermark: bool,
    /// `AFTER DELAY <interval>`: periodic materialization (Extension 6).
    pub after_delay: Option<Expr>,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference, optionally qualified.
    Column {
        /// Relation qualifier (`Bid` in `Bid.price`).
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A literal value.
    Literal(Literal),
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN`?
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// `NOT IN`?
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (with `%` and `_` wildcards).
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern expression.
        pattern: Box<Expr>,
        /// `NOT LIKE`?
        negated: bool,
    },
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// Optional `CASE <operand>` form.
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` expression.
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// The operand.
        expr: Box<Expr>,
        /// Target type.
        to: DataType,
    },
    /// A scalar or aggregate function call.
    Function {
        /// Function name, matched case-insensitively.
        name: String,
        /// Arguments (`Expr::Wildcard` inside `COUNT(*)`).
        args: Vec<Expr>,
        /// `DISTINCT` aggregate?
        distinct: bool,
    },
    /// A scalar subquery.
    Subquery(Box<Query>),
    /// `EXISTS (subquery)`.
    Exists(Box<Query>),
    /// `*` as a function argument (only valid in `COUNT(*)`).
    Wildcard,
}

impl Expr {
    /// Convenience constructor for an unqualified column.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Convenience constructor for a qualified column.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Convenience constructor for a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }
}

/// Literal values as written.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `NULL`.
    Null,
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// Numeric literal, verbatim text (parsed by the binder).
    Number(String),
    /// String literal.
    String(String),
    /// `INTERVAL '<value>' <unit>`.
    Interval {
        /// The quoted magnitude, verbatim.
        value: String,
        /// The unit keyword.
        unit: IntervalUnit,
    },
    /// `TIMESTAMP '<text>'`, with `H:MM[:SS]` clock syntax.
    Timestamp(String),
}

/// Units accepted in `INTERVAL` literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalUnit {
    /// Milliseconds.
    Millisecond,
    /// Seconds.
    Second,
    /// Minutes.
    Minute,
    /// Hours.
    Hour,
}

impl IntervalUnit {
    /// Milliseconds per unit.
    pub fn millis(self) -> i64 {
        match self {
            IntervalUnit::Millisecond => 1,
            IntervalUnit::Second => 1_000,
            IntervalUnit::Minute => 60_000,
            IntervalUnit::Hour => 3_600_000,
        }
    }

    /// Canonical SQL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            IntervalUnit::Millisecond => "MILLISECOND",
            IntervalUnit::Second => "SECOND",
            IntervalUnit::Minute => "MINUTE",
            IntervalUnit::Hour => "HOUR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical `NOT`.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Logical `OR`.
    Or,
    /// Logical `AND`.
    And,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||`
    Concat,
}

impl BinaryOp {
    /// Operator precedence; higher binds tighter.
    pub fn precedence(self) -> u8 {
        use BinaryOp::*;
        match self {
            Or => 1,
            And => 2,
            Eq | NotEq | Lt | LtEq | Gt | GtEq => 4,
            Plus | Minus | Concat => 5,
            Mul | Div | Mod => 6,
        }
    }

    /// SQL spelling.
    pub fn as_str(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Or => "OR",
            And => "AND",
            Eq => "=",
            NotEq => "<>",
            Lt => "<",
            LtEq => "<=",
            Gt => ">",
            GtEq => ">=",
            Plus => "+",
            Minus => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Concat => "||",
        }
    }
}

// ---------------------------------------------------------------------------
// Display: canonical SQL text.
// ---------------------------------------------------------------------------

fn join_displayed<T: fmt::Display>(items: &[T], sep: &str) -> String {
    items.iter().map(T::to_string).collect::<Vec<_>>().join(sep)
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::CreateSource(c) => write!(f, "{c}"),
            Statement::CreateSink(c) => write!(f, "{c}"),
            Statement::CreateStream(c) => write!(f, "{c}"),
            Statement::CreateTemporalTable(c) => write!(f, "{c}"),
            Statement::Insert { sink, query } => write!(f, "INSERT INTO {sink} {query}"),
            Statement::Explain(q) => write!(f, "EXPLAIN {q}"),
            Statement::ExplainAnalyze(q) => write!(f, "EXPLAIN ANALYZE {q}"),
            Statement::ExplainLint(LintTarget::Statement(s)) => write!(f, "EXPLAIN LINT {s}"),
            Statement::ExplainLint(LintTarget::Script(script)) => {
                write!(f, "EXPLAIN LINT '{}'", script.replace('\'', "''"))
            }
            Statement::ShowPipelines => write!(f, "SHOW PIPELINES"),
            Statement::ShowTrace { pipeline, limit } => {
                write!(f, "SHOW TRACE")?;
                if let Some(p) = pipeline {
                    write!(f, " FOR '{}'", p.replace('\'', "''"))?;
                }
                if let Some(n) = limit {
                    write!(f, " LIMIT {n}")?;
                }
                Ok(())
            }
            Statement::TracePipeline { pipeline, path } => write!(
                f,
                "TRACE PIPELINE {pipeline} TO '{}'",
                path.replace('\'', "''")
            ),
            Statement::Set { name, value } => write!(f, "SET {name} = {value}"),
            Statement::CheckpointPipeline { pipeline, path } => write!(
                f,
                "CHECKPOINT PIPELINE {pipeline} TO '{}'",
                path.replace('\'', "''")
            ),
            Statement::RestorePipeline { pipeline, path } => write!(
                f,
                "RESTORE PIPELINE {pipeline} FROM '{}'",
                path.replace('\'', "''")
            ),
            Statement::Drop {
                kind,
                if_exists,
                name,
            } => write!(
                f,
                "DROP {} {}{name}",
                kind.as_str(),
                if *if_exists { "IF EXISTS " } else { "" }
            ),
        }
    }
}

/// Render `(<columns>[, WATERMARK FOR c])`.
fn fmt_schema_clause(
    f: &mut fmt::Formatter<'_>,
    columns: &[ColumnDef],
    watermark: Option<&str>,
) -> fmt::Result {
    write!(f, "({}", join_displayed(columns, ", "))?;
    if let Some(wm) = watermark {
        if !columns.is_empty() {
            write!(f, ", ")?;
        }
        write!(f, "WATERMARK FOR {wm}")?;
    }
    write!(f, ")")
}

fn fmt_with_options(f: &mut fmt::Formatter<'_>, options: &[WithOption]) -> fmt::Result {
    write!(f, " WITH ({})", join_displayed(options, ", "))
}

impl fmt::Display for CreateSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CREATE {}SOURCE {}",
            if self.partitioned { "PARTITIONED " } else { "" },
            self.name
        )?;
        if !self.columns.is_empty() || self.watermark.is_some() {
            write!(f, " ")?;
            fmt_schema_clause(f, &self.columns, self.watermark.as_deref())?;
        }
        fmt_with_options(f, &self.options)
    }
}

impl fmt::Display for CreateSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE SINK {}", self.name)?;
        fmt_with_options(f, &self.options)
    }
}

impl fmt::Display for CreateStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE STREAM {} ", self.name)?;
        fmt_schema_clause(f, &self.columns, self.watermark.as_deref())
    }
}

impl fmt::Display for CreateTemporalTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE TEMPORAL TABLE {} ", self.name)?;
        fmt_schema_clause(f, &self.columns, None)?;
        if !self.options.is_empty() {
            fmt_with_options(f, &self.options)?;
        }
        Ok(())
    }
}

impl fmt::Display for ColumnDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.data_type)
    }
}

impl fmt::Display for WithOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.key, self.value)
    }
}

impl fmt::Display for OptionValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptionValue::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            OptionValue::Number(n) => f.write_str(n),
            OptionValue::Bool(true) => f.write_str("TRUE"),
            OptionValue::Bool(false) => f.write_str("FALSE"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY {}", join_displayed(&self.order_by, ", "))?;
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        if let Some(emit) = &self.emit {
            write!(f, " {emit}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Select(s) => write!(f, "{s}"),
            SetExpr::UnionAll(l, r) => write!(f, "{l} UNION ALL {r}"),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        write!(f, "{}", join_displayed(&self.projection, ", "))?;
        if !self.from.is_empty() {
            write!(f, " FROM {}", join_displayed(&self.from, ", "))?;
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY {}", join_displayed(&self.group_by, ", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table { name, alias, as_of } => {
                write!(f, "{name}")?;
                if let Some(t) = as_of {
                    write!(f, " AS OF SYSTEM TIME {t}")?;
                }
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
            TableRef::Derived { query, alias } => write!(f, "({query}) AS {alias}"),
            TableRef::TableFunction { call, alias } => {
                write!(f, "{call}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                write!(f, "{left}")?;
                match kind {
                    JoinKind::Inner => write!(f, " JOIN {right}")?,
                    JoinKind::Left => write!(f, " LEFT JOIN {right}")?,
                    JoinKind::Cross => write!(f, " CROSS JOIN {right}")?,
                }
                if let Some(cond) = on {
                    write!(f, " ON {cond}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for TvfCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, join_displayed(&self.args, ", "))
    }
}

impl fmt::Display for TvfArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            write!(f, "{name} => ")?;
        }
        write!(f, "{}", self.value)
    }
}

impl fmt::Display for TvfArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TvfArgValue::Table(t) => write!(f, "TABLE({t})"),
            TvfArgValue::Descriptor(c) => write!(f, "DESCRIPTOR({c})"),
            TvfArgValue::Scalar(e) => write!(f, "{e}"),
        }
    }
}

impl fmt::Display for OrderByItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.desc {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

impl fmt::Display for Emit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EMIT")?;
        if self.stream {
            write!(f, " STREAM")?;
        }
        if self.after_watermark {
            write!(f, " AFTER WATERMARK")?;
        }
        if let Some(d) = &self.after_delay {
            if self.after_watermark {
                write!(f, " AND")?;
            }
            write!(f, " AFTER DELAY {d}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(l) => write!(f, "{l}"),
            // Unary operators self-parenthesize: NOT binds loosely in the
            // grammar, so an AST that nests NOT under a comparison must
            // print the parentheses to survive a round trip.
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
            },
            Expr::Binary { left, op, right } => {
                write!(f, "({left} {} {right})", op.as_str())
            }
            // Postfix predicates parenthesize both themselves and their
            // operand so the canonical text reparses unambiguously
            // regardless of the surrounding precedence context.
            Expr::IsNull { expr, negated } => {
                write!(
                    f,
                    "(({expr}) IS {}NULL)",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "(({expr}) {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => write!(
                f,
                "(({expr}) {}IN ({}))",
                if *negated { "NOT " } else { "" },
                join_displayed(list, ", ")
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "(({expr}) {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (when, then) in branches {
                    write!(f, " WHEN {when} THEN {then}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                write!(f, "{name}(")?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                write!(f, "{})", join_displayed(args, ", "))
            }
            Expr::Subquery(q) => write!(f, "({q})"),
            Expr::Exists(q) => write!(f, "EXISTS ({q})"),
            Expr::Wildcard => f.write_str("*"),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => f.write_str("NULL"),
            Literal::Bool(true) => f.write_str("TRUE"),
            Literal::Bool(false) => f.write_str("FALSE"),
            Literal::Number(n) => f.write_str(n),
            Literal::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Interval { value, unit } => {
                write!(f, "INTERVAL '{value}' {}", unit.as_str())
            }
            Literal::Timestamp(t) => write!(f, "TIMESTAMP '{t}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display() {
        let e = Expr::binary(
            Expr::qcol("Bid", "price"),
            BinaryOp::Eq,
            Expr::qcol("MaxBid", "maxPrice"),
        );
        assert_eq!(e.to_string(), "(Bid.price = MaxBid.maxPrice)");
    }

    #[test]
    fn literal_display() {
        assert_eq!(
            Literal::Interval {
                value: "10".into(),
                unit: IntervalUnit::Minute
            }
            .to_string(),
            "INTERVAL '10' MINUTE"
        );
        assert_eq!(Literal::String("it's".into()).to_string(), "'it''s'");
        assert_eq!(
            Literal::Timestamp("8:07".into()).to_string(),
            "TIMESTAMP '8:07'"
        );
    }

    #[test]
    fn emit_display() {
        assert_eq!(
            Emit {
                stream: true,
                after_watermark: false,
                after_delay: None
            }
            .to_string(),
            "EMIT STREAM"
        );
        assert_eq!(
            Emit {
                stream: true,
                after_watermark: true,
                after_delay: Some(Expr::Literal(Literal::Interval {
                    value: "6".into(),
                    unit: IntervalUnit::Minute
                }))
            }
            .to_string(),
            "EMIT STREAM AFTER WATERMARK AND AFTER DELAY INTERVAL '6' MINUTE"
        );
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Plus.precedence());
        assert!(BinaryOp::Plus.precedence() > BinaryOp::Eq.precedence());
        assert!(BinaryOp::Eq.precedence() > BinaryOp::And.precedence());
        assert!(BinaryOp::And.precedence() > BinaryOp::Or.precedence());
    }

    #[test]
    fn interval_unit_millis() {
        assert_eq!(IntervalUnit::Minute.millis(), 60_000);
        assert_eq!(IntervalUnit::Hour.millis(), 3_600_000);
        assert_eq!(IntervalUnit::Second.millis(), 1_000);
        assert_eq!(IntervalUnit::Millisecond.millis(), 1);
    }

    #[test]
    fn visible_alias() {
        let t = TableRef::Table {
            name: "Bid".into(),
            alias: Some("B".into()),
            as_of: None,
        };
        assert_eq!(t.visible_alias(), Some("B"));
        let t = TableRef::Table {
            name: "Bid".into(),
            alias: None,
            as_of: None,
        };
        assert_eq!(t.visible_alias(), Some("Bid"));
    }
}
