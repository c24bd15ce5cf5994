//! Logical plan representation.

use std::fmt;
use std::sync::Arc;

use onesql_types::{Duration, Field, Row, Schema, SchemaRef, Ts};

use crate::catalog::TableKind;
use crate::expr::{AggCall, ScalarExpr};

/// A relational operator tree over time-varying relations. Every node's
/// output is itself a TVR (§3.1): operators map TVRs to TVRs pointwise in
/// time, except where watermarks extend them (aggregation finalization,
/// Extension 2).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// A base table or stream from the catalog.
    Scan {
        /// Catalog name.
        table: String,
        /// Output schema (qualified by alias).
        schema: SchemaRef,
        /// Bounded table or unbounded stream.
        kind: TableKind,
        /// `AS OF SYSTEM TIME` snapshot point for temporal tables (§6.1).
        as_of: Option<Ts>,
        /// Whether the relation's changes can carry a negative diff. The
        /// binder assumes they can; a session clears it for a stream whose
        /// every source declares that it only inserts
        /// ([`LogicalPlan::declare_insert_only`]).
        retracts: bool,
    },
    /// A constant relation (e.g. `SELECT 1` has one empty row).
    Values {
        /// The rows.
        rows: Vec<Row>,
        /// Their schema.
        schema: SchemaRef,
    },
    /// `WHERE` / `HAVING` filter.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Boolean predicate over input columns.
        predicate: ScalarExpr,
    },
    /// Column projection / computation.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// One expression per output column.
        exprs: Vec<ScalarExpr>,
        /// Output schema, with event-time flags already degraded for any
        /// non-verbatim column expression (§5's alignment rule).
        schema: SchemaRef,
    },
    /// An event-time windowing TVF (Extension 3): appends `wstart`/`wend`.
    Window {
        /// Input.
        input: Box<LogicalPlan>,
        /// Tumble/Hop/Session parameters.
        kind: WindowKind,
        /// Index of the event-time column windows are assigned from.
        time_col: usize,
        /// Output schema: input columns + `wstart` + `wend`.
        schema: SchemaRef,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Grouping key expressions.
        group_exprs: Vec<ScalarExpr>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Output schema: group keys then aggregates.
        schema: SchemaRef,
        /// If some grouping key is an event-time column: its index within
        /// `group_exprs`. Enables watermark-finalized execution
        /// (Extension 2); otherwise the engine falls back to retraction
        /// ("updating") mode.
        event_time_key: Option<usize>,
    },
    /// Binary join.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Inner or left-outer.
        kind: JoinKind,
        /// Equi-join key pairs `(left column, right column)`, indices
        /// relative to each side.
        equi: Vec<(usize, usize)>,
        /// Residual non-equi predicate over the *joined* schema.
        residual: Option<ScalarExpr>,
        /// Recognized time-bounded predicate enabling state cleanup.
        time_bound: Option<JoinTimeBound>,
        /// Output schema: left fields then right fields.
        schema: SchemaRef,
    },
    /// Bag union.
    UnionAll {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input (schema-compatible).
        right: Box<LogicalPlan>,
    },
    /// Duplicate elimination (`SELECT DISTINCT`).
    Distinct {
        /// Input.
        input: Box<LogicalPlan>,
    },
}

/// Windowing TVF parameters (paper §6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Fixed, disjoint, covering intervals.
    Tumble {
        /// Window width.
        dur: Duration,
        /// Offset of window boundaries from the epoch.
        offset: Duration,
    },
    /// Fixed-size intervals every `hopsize` (overlapping when
    /// `hopsize < dur`).
    Hop {
        /// Window width.
        dur: Duration,
        /// Spacing between window starts.
        hopsize: Duration,
        /// Offset of window boundaries from the epoch.
        offset: Duration,
    },
    /// Gap-based sessions (paper §8 future work; per-key sessionization is
    /// applied over the aggregate's group key at execution time).
    Session {
        /// Max inactivity gap within one session.
        gap: Duration,
    },
}

impl WindowKind {
    /// Human-readable TVF name.
    pub fn name(&self) -> &'static str {
        match self {
            WindowKind::Tumble { .. } => "Tumble",
            WindowKind::Hop { .. } => "Hop",
            WindowKind::Session { .. } => "Session",
        }
    }
}

/// Join kinds in the logical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    Left,
}

/// A recognized time-bounded join predicate:
/// `left_time ∈ [right_time + lower, right_time + upper)` (or inclusive
/// upper). Lets the join free state for rows that can no longer match once
/// watermarks pass (§5, lesson 1). NEXMark Q7's
/// `Bid.bidtime >= MaxBid.wend - 10min AND Bid.bidtime < MaxBid.wend` is the
/// canonical example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinTimeBound {
    /// Event-time column on the left side (left-relative index).
    pub left_col: usize,
    /// Event-time column on the right side (right-relative index).
    pub right_col: usize,
    /// Lower offset: `left >= right + lower`.
    pub lower: Duration,
    /// Upper offset: `left < right + upper` (or `<=` when inclusive).
    pub upper: Duration,
    /// Whether the upper bound is inclusive.
    pub upper_inclusive: bool,
}

impl LogicalPlan {
    /// The output schema of this operator.
    pub fn schema(&self) -> SchemaRef {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Window { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Join { schema, .. } => Arc::clone(schema),
            LogicalPlan::Filter { input, .. } | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::UnionAll { left, .. } => left.schema(),
        }
    }

    /// True if any transitive input is an unbounded stream.
    pub fn is_unbounded(&self) -> bool {
        let stream = |node: &&LogicalPlan| {
            matches!(
                node,
                LogicalPlan::Scan {
                    kind: TableKind::Stream,
                    ..
                }
            )
        };
        self.nodes().iter().any(stream)
    }

    /// Whether this node's output can carry a negative diff (an `undo`).
    /// A scan answers for its relation; filter, project and the `Tumble`
    /// and `Hop` windows inherit from their input; an inner join, `UNION
    /// ALL` and `DISTINCT` retract if any input does. An aggregate revises
    /// its rows, a session window merges them, and an outer join retracts
    /// its NULL-padded rows, so each retracts, as does a `VALUES`.
    pub fn retracts(&self) -> bool {
        match self {
            LogicalPlan::Scan { retracts, .. } => *retracts,
            LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
                input.retracts()
            }
            LogicalPlan::Window { input, kind, .. } => {
                matches!(kind, WindowKind::Session { .. }) || input.retracts()
            }
            LogicalPlan::Join {
                left, right, kind, ..
            } => *kind != JoinKind::Inner || left.retracts() || right.retracts(),
            LogicalPlan::UnionAll { left, right } => left.retracts() || right.retracts(),
            LogicalPlan::Distinct { input } => input.retracts(),
            LogicalPlan::Values { .. } | LogicalPlan::Aggregate { .. } => true,
        }
    }

    /// Mark the scans of the streams `insert_only` names (lowercased) as
    /// unable to retract.
    pub fn declare_insert_only(&mut self, insert_only: &[String]) {
        match self {
            LogicalPlan::Scan {
                table,
                kind: TableKind::Stream,
                retracts,
                ..
            } => {
                if insert_only.contains(&table.to_ascii_lowercase()) {
                    *retracts = false;
                }
            }
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input } => input.declare_insert_only(insert_only),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::UnionAll { left, right } => {
                left.declare_insert_only(insert_only);
                right.declare_insert_only(insert_only);
            }
        }
    }

    /// Children of this node.
    pub fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::UnionAll { left, right } => {
                vec![left, right]
            }
        }
    }

    /// This node and every transitive input, each before its inputs and
    /// left inputs before right ones: plan order.
    pub fn nodes(&self) -> Vec<&LogicalPlan> {
        let inputs = self.inputs().into_iter().flat_map(LogicalPlan::nodes);
        std::iter::once(self).chain(inputs).collect()
    }

    /// Output columns that identify "the same event-time window" across
    /// revisions of a row — the grouping the paper's `ver` changelog column
    /// counts within (Extension 4) and that `EMIT AFTER DELAY` coalesces on
    /// (Extension 6, Listing 14: one delay bucket per window).
    ///
    /// Windowing TVFs introduce identity (`wstart`/`wend`); identity
    /// survives verbatim column projection, grouping by an identity column,
    /// and joins; everything else erases it. Consumers fall back to all
    /// event-time columns when the result is empty.
    pub fn window_identity_columns(&self) -> Vec<usize> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Window { input, .. } => {
                let arity = input.schema().arity();
                let mut ids = input.window_identity_columns();
                ids.push(arity); // wstart
                ids.push(arity + 1); // wend
                ids
            }
            LogicalPlan::Filter { input, .. } | LogicalPlan::Distinct { input } => {
                input.window_identity_columns()
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let inner = input.window_identity_columns();
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
                let inner = input.window_identity_columns();
                group_exprs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| match e {
                        ScalarExpr::Column(c) if inner.contains(c) => Some(i),
                        _ => None,
                    })
                    .collect()
            }
            LogicalPlan::Join { left, right, .. } => {
                let mut ids = left.window_identity_columns();
                let offset = left.schema().arity();
                ids.extend(
                    right
                        .window_identity_columns()
                        .into_iter()
                        .map(|i| i + offset),
                );
                ids
            }
            LogicalPlan::UnionAll { left, right } => {
                let l = left.window_identity_columns();
                let r = right.window_identity_columns();
                l.into_iter().filter(|i| r.contains(i)).collect()
            }
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Scan {
                table, kind, as_of, ..
            } => {
                write!(f, "{pad}Scan: {table} [{kind:?}]")?;
                if let Some(t) = as_of {
                    write!(f, " AS OF {t}")?;
                }
                writeln!(f)
            }
            LogicalPlan::Values { rows, .. } => {
                writeln!(f, "{pad}Values: {} row(s)", rows.len())
            }
            LogicalPlan::Filter { input, predicate } => {
                writeln!(f, "{pad}Filter: {predicate}")?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Project { input, exprs, .. } => {
                write!(f, "{pad}Project: ")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                writeln!(f)?;
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Window {
                input,
                kind,
                time_col,
                ..
            } => {
                match kind {
                    WindowKind::Tumble { dur, offset } => writeln!(
                        f,
                        "{pad}Window: Tumble(timecol=#{time_col}, dur={dur}, offset={offset})"
                    )?,
                    WindowKind::Hop {
                        dur,
                        hopsize,
                        offset,
                    } => writeln!(
                        f,
                        "{pad}Window: Hop(timecol=#{time_col}, dur={dur}, hopsize={hopsize}, offset={offset})"
                    )?,
                    WindowKind::Session { gap } => writeln!(
                        f,
                        "{pad}Window: Session(timecol=#{time_col}, gap={gap})"
                    )?,
                }
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggs,
                event_time_key,
                ..
            } => {
                write!(f, "{pad}Aggregate: group=[")?;
                for (i, g) in group_exprs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, "] aggs=[")?;
                for (i, a) in aggs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")?;
                match event_time_key {
                    Some(k) => writeln!(f, " mode=windowed(key {k})")?,
                    None => writeln!(f, " mode=retraction")?,
                }
                input.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                equi,
                residual,
                time_bound,
                ..
            } => {
                write!(f, "{pad}Join: {kind:?} on ")?;
                for (i, (l, r)) in equi.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "left#{l} = right#{r}")?;
                }
                if equi.is_empty() {
                    write!(f, "(cross)")?;
                }
                if let Some(res) = residual {
                    write!(f, " residual {res}")?;
                }
                if let Some(tb) = time_bound {
                    write!(
                        f,
                        " time-bound left#{} in [right#{}{:+}ms, right#{}{:+}ms{}",
                        tb.left_col,
                        tb.right_col,
                        tb.lower.millis(),
                        tb.right_col,
                        tb.upper.millis(),
                        if tb.upper_inclusive { "]" } else { ")" }
                    )?;
                }
                writeln!(f)?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            LogicalPlan::UnionAll { left, right } => {
                writeln!(f, "{pad}UnionAll")?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            LogicalPlan::Distinct { input } => {
                writeln!(f, "{pad}Distinct")?;
                input.fmt_indent(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// How the query result should be materialized (§6.5, Extensions 4–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmitSpec {
    /// `EMIT STREAM`: render the changelog, not the table.
    pub stream: bool,
    /// `EMIT AFTER WATERMARK`: only complete rows.
    pub after_watermark: bool,
    /// `EMIT AFTER DELAY d`: coalesce updates per row with period `d`.
    pub delay: Option<Duration>,
}

/// One `ORDER BY` key over the output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Sort expression over the output schema.
    pub expr: ScalarExpr,
    /// Descending?
    pub desc: bool,
}

/// A fully bound and optimized query: the plan plus presentation directives.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    /// The root operator.
    pub plan: LogicalPlan,
    /// `ORDER BY` keys (applied when rendering a table view).
    pub order_by: Vec<SortKey>,
    /// `LIMIT` (applied when rendering a table view).
    pub limit: Option<usize>,
    /// Materialization control.
    pub emit: EmitSpec,
}

impl BoundQuery {
    /// Output schema of the query.
    pub fn schema(&self) -> SchemaRef {
        self.plan.schema()
    }

    /// Render the plan as `EXPLAIN` output: the operator tree, any
    /// non-default `EMIT` materialization spec, and the
    /// [`crate::routing()`] verdict.
    pub fn explain(&self) -> String {
        let mut out = self.plan.to_string();
        if self.emit != EmitSpec::default() {
            out.push_str(&format!("Emit: {:?}\n", self.emit));
        }
        out.push_str(&format!("Route: {}\n", crate::routing::explain(&self.plan)));
        out
    }
}

/// Helper: build the output schema of a window TVF from its input.
pub fn window_output_schema(input: &Schema, qualifier: Option<&str>) -> Schema {
    let mut fields = input.fields().to_vec();
    let mut wstart = Field::event_time("wstart");
    let mut wend = Field::event_time("wend");
    if let Some(q) = qualifier {
        wstart = wstart.with_qualifier(q);
        wend = wend.with_qualifier(q);
    }
    fields.push(wstart);
    fields.push(wend);
    Schema::new(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesql_types::DataType;

    fn bid_schema() -> SchemaRef {
        Arc::new(Schema::new(vec![
            Field::event_time("bidtime").with_qualifier("Bid"),
            Field::new("price", DataType::Int).with_qualifier("Bid"),
            Field::new("item", DataType::String).with_qualifier("Bid"),
        ]))
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "Bid".into(),
            schema: bid_schema(),
            kind: TableKind::Stream,
            as_of: None,
            retracts: true,
        }
    }

    #[test]
    fn schema_propagation() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: ScalarExpr::lit(true),
        };
        assert_eq!(plan.schema().arity(), 3);
        let distinct = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
        assert_eq!(distinct.schema().arity(), 3);
    }

    #[test]
    fn unboundedness_propagates() {
        assert!(scan().is_unbounded());
        let bounded = LogicalPlan::Scan {
            table: "Category".into(),
            schema: bid_schema(),
            kind: TableKind::Table,
            as_of: None,
            retracts: true,
        };
        assert!(!bounded.is_unbounded());
        let join = LogicalPlan::Join {
            left: Box::new(bounded),
            right: Box::new(scan()),
            kind: JoinKind::Inner,
            equi: vec![(1, 1)],
            residual: None,
            time_bound: None,
            schema: Arc::new(bid_schema().join(&bid_schema())),
        };
        assert!(join.is_unbounded());
    }

    #[test]
    fn window_schema_appends_event_time_cols() {
        let out = window_output_schema(&bid_schema(), Some("TumbleBid"));
        assert_eq!(out.arity(), 5);
        let wend = out.field(4).unwrap();
        assert_eq!(wend.name, "wend");
        assert!(wend.event_time);
        assert_eq!(wend.qualifier.as_deref(), Some("TumbleBid"));
        assert_eq!(out.event_time_columns(), vec![0, 3, 4]);
    }

    #[test]
    fn display_explains_tree() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: ScalarExpr::binary(
                ScalarExpr::col(1),
                crate::expr::BinOp::Gt,
                ScalarExpr::lit(3i64),
            ),
        };
        let s = plan.to_string();
        assert!(s.contains("Filter: (#1 > 3)"));
        assert!(s.contains("  Scan: Bid [Stream]"));
    }

    #[test]
    fn window_identity_flows_through_project_and_join() {
        use crate::expr::ScalarExpr;
        // Window over the 3-column bid scan: identity = {3 (wstart), 4 (wend)}.
        let window = LogicalPlan::Window {
            input: Box::new(scan()),
            kind: WindowKind::Tumble {
                dur: Duration::from_minutes(10),
                offset: Duration::ZERO,
            },
            time_col: 0,
            schema: Arc::new(window_output_schema(&bid_schema(), None)),
        };
        assert_eq!(window.window_identity_columns(), vec![3, 4]);

        // Projection keeping only wend (as column 0): identity remaps.
        let project = LogicalPlan::Project {
            input: Box::new(window),
            exprs: vec![ScalarExpr::Column(4), ScalarExpr::Column(1)],
            schema: Arc::new(Schema::new(vec![
                Field::event_time("wend"),
                Field::new("price", DataType::Int),
            ])),
        };
        assert_eq!(project.window_identity_columns(), vec![0]);

        // Join with a plain scan: right side offsets by the left arity.
        let join = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(project),
            kind: JoinKind::Inner,
            equi: vec![],
            residual: None,
            time_bound: None,
            schema: Arc::new(bid_schema().join(&Schema::new(vec![
                Field::event_time("wend"),
                Field::new("price", DataType::Int),
            ]))),
        };
        assert_eq!(join.window_identity_columns(), vec![3]);
        // A plain scan has no window identity.
        assert!(scan().window_identity_columns().is_empty());
    }

    #[test]
    fn node_count() {
        let plan = LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: ScalarExpr::lit(true),
            }),
        };
        assert_eq!(plan.nodes().len(), 3);
    }
}
