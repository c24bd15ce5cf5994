#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Query planning: binding, logical plans, and optimization.
//!
//! The pipeline is `AST → (binder) → LogicalPlan → (optimizer) →
//! LogicalPlan`, after which `onesql-exec` compiles the plan into an
//! incremental dataflow. Binding resolves names against a [`Catalog`],
//! type-checks every expression, extracts aggregates, rewrites windowing
//! TVFs into [`plan::LogicalPlan::Window`] nodes, and — centrally for the
//! paper — tracks which columns remain *watermark-aligned event-time
//! columns* through each operator (§5's alignment lesson, Extension 1).
//!
//! The optimizer applies classic rewrite rules (predicate pushdown, constant
//! folding, filter merging, projection pruning) plus a streaming-specific
//! one: recognizing *time-bounded join predicates* so the executor can free
//! join state as watermarks advance (§5, lesson 1).

pub mod binder;
pub mod catalog;
pub mod expr;
pub mod kernel;
pub mod lint;
pub mod optimizer;
pub mod plan;
pub mod routing;
pub mod statement;

pub use binder::{bind, Binder};
pub use catalog::{Catalog, MemoryCatalog, TableKind};
pub use expr::{AggCall, AggFunc, ScalarExpr};
pub use kernel::{
    compile as compile_kernel, eval as eval_kernel, Frame, Kernel, KernelError, Vector,
};
pub use lint::{render_report, Diagnostic, LintMode, Severity};
pub use optimizer::optimize;
pub use plan::{BoundQuery, EmitSpec, JoinKind, JoinTimeBound, LogicalPlan, SortKey, WindowKind};
pub use routing::{routing, RouteKey, Routing};
pub use statement::{bind_statement, BoundStatement, ConnectorOptions, SessionKnob, TraceMode};

use onesql_types::Result;

/// Convenience: parse, bind, and optimize a SQL query in one call.
pub fn plan_sql(sql: &str, catalog: &dyn Catalog) -> Result<BoundQuery> {
    let ast = onesql_sql::parse(sql)?;
    let bound = bind(&ast, catalog)?;
    Ok(optimize(bound))
}
