//! The binder: AST → typed logical plan.

use std::sync::Arc;

use onesql_sql::ast;
use onesql_types::{DataType, Duration, Error, Field, Result, Row, Schema, Ts, Value};

use crate::catalog::{Catalog, TableKind};
use crate::expr::{AggCall, AggFunc, BinOp, ScalarExpr, ScalarFunc};
use crate::plan::{
    window_output_schema, BoundQuery, EmitSpec, JoinKind, LogicalPlan, SortKey, WindowKind,
};

/// Bind a parsed query against a catalog.
pub fn bind(query: &ast::Query, catalog: &dyn Catalog) -> Result<BoundQuery> {
    Binder { catalog }.bind_query(query)
}

/// Binder state: just the catalog; all other context is threaded explicitly.
pub struct Binder<'a> {
    catalog: &'a dyn Catalog,
}

impl<'a> Binder<'a> {
    /// Create a binder over `catalog`.
    pub fn new(catalog: &'a dyn Catalog) -> Binder<'a> {
        Binder { catalog }
    }

    /// Bind a full query including `ORDER BY`, `LIMIT`, and `EMIT`.
    pub fn bind_query(&self, query: &ast::Query) -> Result<BoundQuery> {
        let plan = self.bind_set_expr(&query.body)?;
        let schema = plan.schema();

        let mut order_by = Vec::with_capacity(query.order_by.len());
        for item in &query.order_by {
            let expr = self.bind_scalar(&item.expr, &schema)?;
            expr.data_type(&schema)?;
            order_by.push(SortKey {
                expr,
                desc: item.desc,
            });
        }

        let emit = match &query.emit {
            None => EmitSpec::default(),
            Some(e) => EmitSpec {
                stream: e.stream,
                after_watermark: e.after_watermark,
                delay: match &e.after_delay {
                    None => None,
                    Some(expr) => Some(self.constant_interval(expr, "EMIT AFTER DELAY")?),
                },
            },
        };

        Ok(BoundQuery {
            plan,
            order_by,
            limit: query.limit.map(|l| l as usize),
            emit,
        })
    }

    fn bind_set_expr(&self, body: &ast::SetExpr) -> Result<LogicalPlan> {
        match body {
            ast::SetExpr::Select(select) => self.bind_select(select),
            ast::SetExpr::UnionAll(left, right) => {
                let l = self.bind_set_expr(left)?;
                let r = self.bind_set_expr(right)?;
                let (ls, rs) = (l.schema(), r.schema());
                if ls.arity() != rs.arity() {
                    return Err(Error::plan(format!(
                        "UNION ALL inputs have different arities: {} vs {}",
                        ls.arity(),
                        rs.arity()
                    )));
                }
                for i in 0..ls.arity() {
                    let (lf, rf) = (ls.field(i)?, rs.field(i)?);
                    if DataType::common_super_type(lf.data_type, rf.data_type).is_none() {
                        return Err(Error::plan(format!(
                            "UNION ALL column {i} has incompatible types {} and {}",
                            lf.data_type, rf.data_type
                        )));
                    }
                }
                Ok(LogicalPlan::UnionAll {
                    left: Box::new(l),
                    right: Box::new(r),
                })
            }
        }
    }

    fn bind_select(&self, select: &ast::Select) -> Result<LogicalPlan> {
        // FROM: bind each item and cross-join them (the optimizer later
        // folds WHERE equi-predicates into the joins).
        let mut plan = match select.from.split_first() {
            None => LogicalPlan::Values {
                rows: vec![Row::empty()],
                schema: Arc::new(Schema::empty()),
            },
            Some((first, rest)) => {
                let mut plan = self.bind_table_ref(first)?;
                for tr in rest {
                    let right = self.bind_table_ref(tr)?;
                    plan = cross_join(plan, right);
                }
                plan
            }
        };

        // WHERE: may introduce uncorrelated scalar subqueries, which are
        // decorrelated into cross joins against single-row subplans.
        if let Some(selection) = &select.selection {
            let predicate = self.bind_predicate_with_subqueries(selection, &mut plan)?;
            let t = predicate.data_type(&plan.schema())?;
            if !matches!(t, DataType::Bool | DataType::Null) {
                return Err(Error::plan(format!(
                    "WHERE predicate must be BOOLEAN, got {t}"
                )));
            }
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // Aggregation: collect aggregate calls from projection and HAVING.
        let mut agg_asts: Vec<(AggFunc, Option<ast::Expr>, bool)> = Vec::new();
        for item in &select.projection {
            if let ast::SelectItem::Expr { expr, .. } = item {
                collect_aggregates(expr, &mut agg_asts)?;
            }
        }
        if let Some(h) = &select.having {
            collect_aggregates(h, &mut agg_asts)?;
        }

        let has_aggregation = !select.group_by.is_empty() || !agg_asts.is_empty();

        if has_aggregation {
            self.bind_aggregate_select(select, plan, agg_asts)
        } else {
            if select.having.is_some() {
                return Err(Error::plan("HAVING requires GROUP BY or aggregates"));
            }
            let input_schema = plan.schema();
            let (exprs, schema) = self.bind_projection(&select.projection, &input_schema, None)?;
            let mut plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs,
                schema: Arc::new(schema),
            };
            if select.distinct {
                plan = LogicalPlan::Distinct {
                    input: Box::new(plan),
                };
            }
            Ok(plan)
        }
    }

    /// Bind a `SELECT` with grouping/aggregation. Produces
    /// `Project(Filter?(Aggregate(input)))`.
    fn bind_aggregate_select(
        &self,
        select: &ast::Select,
        input: LogicalPlan,
        agg_asts: Vec<(AggFunc, Option<ast::Expr>, bool)>,
    ) -> Result<LogicalPlan> {
        let input_schema = input.schema();

        // Bind grouping keys.
        let mut group_exprs = Vec::with_capacity(select.group_by.len());
        for g in &select.group_by {
            let e = self.bind_scalar(g, &input_schema)?;
            e.data_type(&input_schema)?;
            group_exprs.push(e);
        }

        // Bind aggregate arguments.
        let mut aggs = Vec::with_capacity(agg_asts.len());
        for (func, arg_ast, distinct) in &agg_asts {
            let arg = match arg_ast {
                None => None,
                Some(a) => {
                    let bound = self.bind_scalar(a, &input_schema)?;
                    let t = bound.data_type(&input_schema)?;
                    func.result_type(t)?;
                    Some(bound)
                }
            };
            aggs.push(AggCall {
                func: *func,
                arg,
                distinct: *distinct,
            });
        }

        // Aggregate output schema: group keys then aggregates. A group key
        // that is a verbatim event-time column keeps its alignment — this is
        // what makes `GROUP BY wend` finalizable (Extension 2).
        let mut fields = Vec::with_capacity(group_exprs.len() + aggs.len());
        let mut event_time_key = None;
        for (i, (e, ast_e)) in group_exprs.iter().zip(&select.group_by).enumerate() {
            let field = match e {
                ScalarExpr::Column(c) => {
                    let f = input_schema.field(*c)?.clone();
                    if f.event_time && event_time_key.is_none() {
                        event_time_key = Some(i);
                    }
                    f
                }
                other => Field::new(ast_e.to_string(), other.data_type(&input_schema)?),
            };
            fields.push(field);
        }
        for (agg, (_, arg_ast, _)) in aggs.iter().zip(&agg_asts) {
            let arg_type = match &agg.arg {
                Some(a) => a.data_type(&input_schema)?,
                None => DataType::Int, // COUNT(*)
            };
            let name = match arg_ast {
                Some(a) => format!("{}({})", agg.func.name(), a),
                None => format!("{}(*)", agg.func.name()),
            };
            fields.push(Field::new(name, agg.func.result_type(arg_type)?));
        }
        let agg_schema = Arc::new(Schema::new(fields));

        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group_exprs,
            aggs,
            schema: Arc::clone(&agg_schema),
            event_time_key,
        };

        // Rewriting context: group-by ASTs map to leading columns,
        // aggregate ASTs to trailing columns.
        let rewrite = AggRewrite {
            group_by: &select.group_by,
            aggs: &agg_asts,
        };

        if let Some(h) = &select.having {
            let predicate = self.bind_over_aggregate(h, &rewrite, &agg_schema)?;
            let t = predicate.data_type(&agg_schema)?;
            if !matches!(t, DataType::Bool | DataType::Null) {
                return Err(Error::plan(format!(
                    "HAVING predicate must be BOOLEAN, got {t}"
                )));
            }
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // Final projection over the aggregate output.
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in &select.projection {
            match item {
                ast::SelectItem::Wildcard | ast::SelectItem::QualifiedWildcard(_) => {
                    return Err(Error::plan(
                        "SELECT * is not allowed with GROUP BY or aggregates",
                    ))
                }
                ast::SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_over_aggregate(expr, &rewrite, &agg_schema)?;
                    let dt = bound.data_type(&agg_schema)?;
                    let field =
                        self.output_field(expr, alias.as_deref(), &bound, dt, &agg_schema)?;
                    exprs.push(bound);
                    fields.push(field);
                }
            }
        }
        let mut plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs,
            schema: Arc::new(Schema::new(fields)),
        };
        if select.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        Ok(plan)
    }

    /// Bind a projection list without aggregation.
    fn bind_projection(
        &self,
        items: &[ast::SelectItem],
        schema: &Schema,
        _agg: Option<()>,
    ) -> Result<(Vec<ScalarExpr>, Schema)> {
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in items {
            match item {
                ast::SelectItem::Wildcard => {
                    for (i, f) in schema.fields().iter().enumerate() {
                        exprs.push(ScalarExpr::Column(i));
                        fields.push(f.clone());
                    }
                }
                ast::SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for (i, f) in schema.fields().iter().enumerate() {
                        if f.qualifier
                            .as_deref()
                            .is_some_and(|fq| fq.eq_ignore_ascii_case(q))
                        {
                            exprs.push(ScalarExpr::Column(i));
                            fields.push(f.clone());
                            any = true;
                        }
                    }
                    if !any {
                        return Err(Error::plan(format!("no columns match wildcard '{q}.*'")));
                    }
                }
                ast::SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_scalar(expr, schema)?;
                    let dt = bound.data_type(schema)?;
                    let field = self.output_field(expr, alias.as_deref(), &bound, dt, schema)?;
                    exprs.push(bound);
                    fields.push(field);
                }
            }
        }
        Ok((exprs, Schema::new(fields)))
    }

    /// Compute the output field for a projected expression, preserving the
    /// event-time flag only for verbatim column references (§5's
    /// conservative alignment rule, as in Flink).
    fn output_field(
        &self,
        ast_expr: &ast::Expr,
        alias: Option<&str>,
        bound: &ScalarExpr,
        dt: DataType,
        input: &Schema,
    ) -> Result<Field> {
        let (name, event_time) = match bound {
            ScalarExpr::Column(i) => {
                let f = input.field(*i)?;
                (f.name.clone(), f.event_time)
            }
            _ => (ast_expr.to_string(), false),
        };
        let name = alias.map(str::to_string).unwrap_or(name);
        let mut field = Field::new(name, dt);
        field.event_time = event_time && dt == DataType::Timestamp;
        Ok(field)
    }

    // -- FROM items ---------------------------------------------------------

    fn bind_table_ref(&self, tr: &ast::TableRef) -> Result<LogicalPlan> {
        match tr {
            ast::TableRef::Table { name, alias, as_of } => {
                let (schema, kind) = self.catalog.resolve(name)?;
                let qualifier = alias.as_deref().unwrap_or(name);
                let schema = Arc::new(schema.with_qualifier(qualifier));
                let as_of = match as_of {
                    None => None,
                    Some(expr) => Some(self.constant_timestamp(expr, "AS OF SYSTEM TIME")?),
                };
                if as_of.is_some() && kind == TableKind::Stream {
                    return Err(Error::plan(format!(
                        "AS OF SYSTEM TIME requires a temporal table; '{name}' is a stream"
                    )));
                }
                Ok(LogicalPlan::Scan {
                    table: name.clone(),
                    schema,
                    kind,
                    as_of,
                    retracts: true,
                })
            }
            ast::TableRef::Derived { query, alias } => {
                if query.emit.is_some() {
                    return Err(Error::unsupported(
                        "EMIT is only allowed at the top level of a query (paper §8 'Nested EMIT')",
                    ));
                }
                let bound = self.bind_query(query)?;
                if !bound.order_by.is_empty() || bound.limit.is_some() {
                    return Err(Error::unsupported(
                        "ORDER BY / LIMIT in derived tables is not supported",
                    ));
                }
                let plan = bound.plan;
                // Requalify output columns with the alias.
                let schema = Arc::new(plan.schema().with_qualifier(alias));
                let exprs: Vec<ScalarExpr> = (0..schema.arity()).map(ScalarExpr::Column).collect();
                Ok(LogicalPlan::Project {
                    input: Box::new(plan),
                    exprs,
                    schema,
                })
            }
            ast::TableRef::TableFunction { call, alias } => self.bind_tvf(call, alias.as_deref()),
            ast::TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let l = self.bind_table_ref(left)?;
                let r = self.bind_table_ref(right)?;
                let joined_schema = Arc::new(l.schema().join(&r.schema()));
                let (jk, on) = match kind {
                    ast::JoinKind::Cross => (JoinKind::Inner, None),
                    ast::JoinKind::Inner => (JoinKind::Inner, on.clone()),
                    ast::JoinKind::Left => (JoinKind::Left, on.clone()),
                };
                let (equi, residual) = match &on {
                    None => (vec![], None),
                    Some(cond) => {
                        let bound = self.bind_scalar(cond, &joined_schema)?;
                        let t = bound.data_type(&joined_schema)?;
                        if !matches!(t, DataType::Bool | DataType::Null) {
                            return Err(Error::plan(format!(
                                "JOIN condition must be BOOLEAN, got {t}"
                            )));
                        }
                        split_join_condition(bound, l.schema().arity())
                    }
                };
                Ok(LogicalPlan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    kind: jk,
                    equi,
                    residual,
                    time_bound: None,
                    schema: joined_schema,
                })
            }
        }
    }

    fn bind_tvf(&self, call: &ast::TvfCall, alias: Option<&str>) -> Result<LogicalPlan> {
        let name_upper = call.name.to_ascii_uppercase();
        let (param_names, required): (&[&str], usize) = match name_upper.as_str() {
            "TUMBLE" => (&["data", "timecol", "dur", "offset"], 3),
            "HOP" => (&["data", "timecol", "dur", "hopsize", "offset"], 4),
            "SESSION" => (&["data", "timecol", "gap"], 3),
            other => {
                return Err(Error::plan(format!(
                    "unknown table-valued function '{other}'; known: Tumble, Hop, Session"
                )))
            }
        };

        // Resolve named/positional arguments into slots.
        let mut slots: Vec<Option<&ast::TvfArgValue>> = vec![None; param_names.len()];
        for (pos, arg) in call.args.iter().enumerate() {
            let slot = match &arg.name {
                Some(n) => param_names
                    .iter()
                    .position(|p| p.eq_ignore_ascii_case(n))
                    .ok_or_else(|| {
                        Error::plan(format!(
                            "unknown parameter '{n}' for {}; expected one of [{}]",
                            call.name,
                            param_names.join(", ")
                        ))
                    })?,
                None => pos,
            };
            if slot >= slots.len() {
                return Err(Error::plan(format!("too many arguments for {}", call.name)));
            }
            if slots[slot].is_some() {
                return Err(Error::plan(format!(
                    "parameter '{}' given more than once for {}",
                    param_names[slot], call.name
                )));
            }
            slots[slot] = Some(&arg.value);
        }
        for i in 0..required {
            if slots[i].is_none() {
                return Err(Error::plan(format!(
                    "missing required parameter '{}' for {}",
                    param_names[i], call.name
                )));
            }
        }

        // data: a table argument.
        let input = match slots[0] {
            Some(ast::TvfArgValue::Table(t)) => self.bind_table_ref(t)?,
            _ => {
                return Err(Error::plan(format!(
                    "parameter 'data' of {} must be TABLE(...)",
                    call.name
                )))
            }
        };
        let input_schema = input.schema();

        // timecol: a descriptor naming a TIMESTAMP column of data.
        let time_col = match slots[1] {
            Some(ast::TvfArgValue::Descriptor(col)) => {
                let idx = input_schema.index_of(None, col)?;
                let f = input_schema.field(idx)?;
                if f.data_type != DataType::Timestamp {
                    return Err(Error::plan(format!(
                        "timecol '{col}' must be TIMESTAMP, got {}",
                        f.data_type
                    )));
                }
                idx
            }
            _ => {
                return Err(Error::plan(format!(
                    "parameter 'timecol' of {} must be DESCRIPTOR(...)",
                    call.name
                )))
            }
        };

        let scalar_slot = |i: usize, name: &str| -> Result<Option<Duration>> {
            match slots.get(i).copied().flatten() {
                None => Ok(None),
                Some(ast::TvfArgValue::Scalar(e)) => Ok(Some(self.constant_interval(e, name)?)),
                Some(_) => Err(Error::plan(format!(
                    "parameter '{name}' of {} must be an INTERVAL expression",
                    call.name
                ))),
            }
        };

        let required = |v: Option<Duration>, name: &str| {
            v.ok_or_else(|| Error::plan(format!("parameter '{name}' of {} is required", call.name)))
        };

        let kind = match name_upper.as_str() {
            "TUMBLE" => {
                let dur = required(scalar_slot(2, "dur")?, "dur")?;
                let offset = scalar_slot(3, "offset")?.unwrap_or(Duration::ZERO);
                if !dur.is_positive() {
                    return Err(Error::plan("Tumble dur must be positive"));
                }
                WindowKind::Tumble { dur, offset }
            }
            "HOP" => {
                let dur = required(scalar_slot(2, "dur")?, "dur")?;
                let hopsize = required(scalar_slot(3, "hopsize")?, "hopsize")?;
                let offset = scalar_slot(4, "offset")?.unwrap_or(Duration::ZERO);
                if !dur.is_positive() || !hopsize.is_positive() {
                    return Err(Error::plan("Hop dur and hopsize must be positive"));
                }
                WindowKind::Hop {
                    dur,
                    hopsize,
                    offset,
                }
            }
            "SESSION" => {
                let gap = required(scalar_slot(2, "gap")?, "gap")?;
                if !gap.is_positive() {
                    return Err(Error::plan("Session gap must be positive"));
                }
                WindowKind::Session { gap }
            }
            _ => unreachable!(),
        };

        let mut out_schema = window_output_schema(&input_schema, alias);
        if let Some(a) = alias {
            out_schema = out_schema.with_qualifier(a);
        }
        Ok(LogicalPlan::Window {
            input: Box::new(input),
            kind,
            time_col,
            schema: Arc::new(out_schema),
        })
    }

    // -- expressions --------------------------------------------------------

    /// Bind a scalar expression with no aggregates and no subqueries.
    pub fn bind_scalar(&self, expr: &ast::Expr, schema: &Schema) -> Result<ScalarExpr> {
        self.bind_expr_inner(expr, schema, &mut NoSubqueries)
    }

    /// Bind a WHERE predicate, decorrelating uncorrelated scalar subqueries
    /// into cross joins appended to `plan`.
    fn bind_predicate_with_subqueries(
        &self,
        expr: &ast::Expr,
        plan: &mut LogicalPlan,
    ) -> Result<ScalarExpr> {
        struct Ctx<'p, 'c> {
            binder: &'p Binder<'c>,
            plan: &'p mut LogicalPlan,
        }
        impl SubqueryHandler for Ctx<'_, '_> {
            fn bind_subquery(&mut self, q: &ast::Query) -> Result<ScalarExpr> {
                let bound = self.binder.bind_query(q)?;
                if bound.emit != EmitSpec::default() {
                    return Err(Error::unsupported(
                        "EMIT is only allowed at the top level of a query",
                    ));
                }
                let sub = bound.plan;
                let sub_schema = sub.schema();
                if sub_schema.arity() != 1 {
                    return Err(Error::plan(format!(
                        "scalar subquery must return one column, got {}",
                        sub_schema.arity()
                    )));
                }
                let base_arity = self.plan.schema().arity();
                let current = std::mem::replace(
                    self.plan,
                    LogicalPlan::Values {
                        rows: vec![],
                        schema: Arc::new(Schema::empty()),
                    },
                );
                *self.plan = cross_join(current, sub);
                Ok(ScalarExpr::Column(base_arity))
            }
        }
        let mut ctx = Ctx { binder: self, plan };
        // Note: the schema grows as subqueries are appended on the right;
        // binding column references against the *original* prefix stays
        // valid, so re-deriving the schema per node is correct.
        let schema = ctx.plan.schema();
        let bound = self.bind_expr_inner(expr, &schema, &mut ctx)?;
        Ok(bound)
    }

    fn bind_expr_inner(
        &self,
        expr: &ast::Expr,
        schema: &Schema,
        subq: &mut dyn SubqueryHandler,
    ) -> Result<ScalarExpr> {
        Ok(match expr {
            ast::Expr::Column { qualifier, name } => {
                let idx = schema.index_of(qualifier.as_deref(), name)?;
                ScalarExpr::Column(idx)
            }
            ast::Expr::Literal(l) => ScalarExpr::Literal(bind_literal(l)?),
            ast::Expr::Unary { op, expr } => {
                let e = self.bind_expr_inner(expr, schema, subq)?;
                match op {
                    ast::UnaryOp::Not => ScalarExpr::Not(Box::new(e)),
                    ast::UnaryOp::Neg => match e {
                        // Fold negation of numeric literals immediately.
                        ScalarExpr::Literal(v) => ScalarExpr::Literal(v.neg()?),
                        other => ScalarExpr::Neg(Box::new(other)),
                    },
                }
            }
            ast::Expr::Binary { left, op, right } => {
                let l = self.bind_expr_inner(left, schema, subq)?;
                let r = self.bind_expr_inner(right, schema, subq)?;
                ScalarExpr::binary(l, bind_binop(*op), r)
            }
            ast::Expr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(self.bind_expr_inner(expr, schema, subq)?),
                negated: *negated,
            },
            ast::Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // Desugar: e BETWEEN a AND b  ≡  e >= a AND e <= b.
                let e = self.bind_expr_inner(expr, schema, subq)?;
                let lo = self.bind_expr_inner(low, schema, subq)?;
                let hi = self.bind_expr_inner(high, schema, subq)?;
                let range = ScalarExpr::binary(
                    ScalarExpr::binary(e.clone(), BinOp::GtEq, lo),
                    BinOp::And,
                    ScalarExpr::binary(e, BinOp::LtEq, hi),
                );
                if *negated {
                    ScalarExpr::Not(Box::new(range))
                } else {
                    range
                }
            }
            ast::Expr::InList {
                expr,
                list,
                negated,
            } => ScalarExpr::InList {
                expr: Box::new(self.bind_expr_inner(expr, schema, subq)?),
                list: list
                    .iter()
                    .map(|e| self.bind_expr_inner(e, schema, subq))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            ast::Expr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(self.bind_expr_inner(expr, schema, subq)?),
                pattern: Box::new(self.bind_expr_inner(pattern, schema, subq)?),
                negated: *negated,
            },
            ast::Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let mut bound_branches = Vec::with_capacity(branches.len());
                for (when, then) in branches {
                    let cond = match operand {
                        // CASE x WHEN v ...  ≡  CASE WHEN x = v ...
                        Some(op) => {
                            let l = self.bind_expr_inner(op, schema, subq)?;
                            let r = self.bind_expr_inner(when, schema, subq)?;
                            ScalarExpr::binary(l, BinOp::Eq, r)
                        }
                        None => self.bind_expr_inner(when, schema, subq)?,
                    };
                    bound_branches.push((cond, self.bind_expr_inner(then, schema, subq)?));
                }
                ScalarExpr::Case {
                    branches: bound_branches,
                    else_expr: match else_expr {
                        Some(e) => Some(Box::new(self.bind_expr_inner(e, schema, subq)?)),
                        None => None,
                    },
                }
            }
            ast::Expr::Cast { expr, to } => ScalarExpr::Cast {
                expr: Box::new(self.bind_expr_inner(expr, schema, subq)?),
                to: *to,
            },
            ast::Expr::Function {
                name,
                args,
                distinct,
            } => {
                if AggFunc::lookup(name).is_some() {
                    return Err(Error::plan(format!(
                        "aggregate function {name} is not allowed here"
                    )));
                }
                let func = ScalarFunc::lookup(name)
                    .ok_or_else(|| Error::plan(format!("unknown function '{name}'")))?;
                if *distinct {
                    return Err(Error::plan(format!(
                        "DISTINCT is not valid for scalar function {name}"
                    )));
                }
                ScalarExpr::ScalarFn {
                    func,
                    args: args
                        .iter()
                        .map(|a| {
                            if matches!(a, ast::Expr::Wildcard) {
                                Err(Error::plan("'*' is only valid in COUNT(*)"))
                            } else {
                                self.bind_expr_inner(a, schema, subq)
                            }
                        })
                        .collect::<Result<_>>()?,
                }
            }
            ast::Expr::Subquery(q) => subq.bind_subquery(q)?,
            ast::Expr::Exists(_) => {
                return Err(Error::unsupported(
                    "EXISTS subqueries are not supported; rewrite as a join",
                ))
            }
            ast::Expr::Wildcard => return Err(Error::plan("'*' is only valid in COUNT(*)")),
        })
    }

    /// Bind an expression in the context of an aggregation: group-by
    /// expressions and aggregate calls become column references into the
    /// aggregate's output schema; any other column reference is an error.
    #[allow(clippy::only_used_in_recursion)]
    fn bind_over_aggregate(
        &self,
        expr: &ast::Expr,
        rewrite: &AggRewrite<'_>,
        agg_schema: &Schema,
    ) -> Result<ScalarExpr> {
        // A verbatim group-by expression.
        if let Some(pos) = rewrite.group_by.iter().position(|g| g == expr) {
            return Ok(ScalarExpr::Column(pos));
        }
        // An aggregate call.
        if let ast::Expr::Function {
            name,
            args,
            distinct,
        } = expr
        {
            if let Some(func) = AggFunc::lookup(name) {
                let arg_ast = agg_argument(func, args, *distinct)?;
                let pos = rewrite
                    .aggs
                    .iter()
                    .position(|(f, a, d)| *f == func && *a == arg_ast && *d == *distinct)
                    .ok_or_else(|| Error::plan("internal: aggregate not collected"))?;
                return Ok(ScalarExpr::Column(rewrite.group_by.len() + pos));
            }
        }
        // Otherwise recurse structurally; bare columns are invalid here.
        match expr {
            ast::Expr::Column { qualifier, name } => Err(Error::plan(format!(
                "column '{}' must appear in GROUP BY or inside an aggregate",
                match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                }
            ))),
            ast::Expr::Literal(l) => Ok(ScalarExpr::Literal(bind_literal(l)?)),
            ast::Expr::Unary { op, expr } => {
                let e = self.bind_over_aggregate(expr, rewrite, agg_schema)?;
                Ok(match op {
                    ast::UnaryOp::Not => ScalarExpr::Not(Box::new(e)),
                    ast::UnaryOp::Neg => ScalarExpr::Neg(Box::new(e)),
                })
            }
            ast::Expr::Binary { left, op, right } => Ok(ScalarExpr::binary(
                self.bind_over_aggregate(left, rewrite, agg_schema)?,
                bind_binop(*op),
                self.bind_over_aggregate(right, rewrite, agg_schema)?,
            )),
            ast::Expr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                expr: Box::new(self.bind_over_aggregate(expr, rewrite, agg_schema)?),
                negated: *negated,
            }),
            ast::Expr::Cast { expr, to } => Ok(ScalarExpr::Cast {
                expr: Box::new(self.bind_over_aggregate(expr, rewrite, agg_schema)?),
                to: *to,
            }),
            ast::Expr::Case {
                operand: None,
                branches,
                else_expr,
            } => Ok(ScalarExpr::Case {
                branches: branches
                    .iter()
                    .map(|(w, t)| {
                        Ok((
                            self.bind_over_aggregate(w, rewrite, agg_schema)?,
                            self.bind_over_aggregate(t, rewrite, agg_schema)?,
                        ))
                    })
                    .collect::<Result<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.bind_over_aggregate(e, rewrite, agg_schema)?)),
                    None => None,
                },
            }),
            ast::Expr::Function { name, args, .. } if ScalarFunc::lookup(name).is_some() => {
                let func = ScalarFunc::lookup(name)
                    .ok_or_else(|| Error::plan(format!("unknown scalar function '{name}'")))?;
                Ok(ScalarExpr::ScalarFn {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.bind_over_aggregate(a, rewrite, agg_schema))
                        .collect::<Result<_>>()?,
                })
            }
            other => Err(Error::plan(format!(
                "expression '{other}' is not valid in an aggregate query context"
            ))),
        }
    }

    // -- constant folding helpers ------------------------------------------

    fn constant_value(&self, expr: &ast::Expr, what: &str) -> Result<Value> {
        let empty = Schema::empty();
        let bound = self
            .bind_scalar(expr, &empty)
            .map_err(|e| Error::plan(format!("{what} must be a constant expression: {e}")))?;
        bound.eval(&Row::empty())
    }

    fn constant_interval(&self, expr: &ast::Expr, what: &str) -> Result<Duration> {
        match self.constant_value(expr, what)? {
            Value::Interval(d) => Ok(d),
            other => Err(Error::plan(format!(
                "{what} must be an INTERVAL, got {}",
                other.data_type()
            ))),
        }
    }

    fn constant_timestamp(&self, expr: &ast::Expr, what: &str) -> Result<Ts> {
        match self.constant_value(expr, what)? {
            Value::Ts(t) => Ok(t),
            other => Err(Error::plan(format!(
                "{what} must be a TIMESTAMP, got {}",
                other.data_type()
            ))),
        }
    }
}

/// Context mapping aggregate-query ASTs to aggregate output columns.
struct AggRewrite<'a> {
    group_by: &'a [ast::Expr],
    aggs: &'a [(AggFunc, Option<ast::Expr>, bool)],
}

trait SubqueryHandler {
    fn bind_subquery(&mut self, q: &ast::Query) -> Result<ScalarExpr>;
}

struct NoSubqueries;
impl SubqueryHandler for NoSubqueries {
    fn bind_subquery(&mut self, _q: &ast::Query) -> Result<ScalarExpr> {
        Err(Error::unsupported(
            "scalar subqueries are only supported in WHERE clauses",
        ))
    }
}

fn bind_binop(op: ast::BinaryOp) -> BinOp {
    match op {
        ast::BinaryOp::Or => BinOp::Or,
        ast::BinaryOp::And => BinOp::And,
        ast::BinaryOp::Eq => BinOp::Eq,
        ast::BinaryOp::NotEq => BinOp::NotEq,
        ast::BinaryOp::Lt => BinOp::Lt,
        ast::BinaryOp::LtEq => BinOp::LtEq,
        ast::BinaryOp::Gt => BinOp::Gt,
        ast::BinaryOp::GtEq => BinOp::GtEq,
        ast::BinaryOp::Plus => BinOp::Plus,
        ast::BinaryOp::Minus => BinOp::Minus,
        ast::BinaryOp::Mul => BinOp::Mul,
        ast::BinaryOp::Div => BinOp::Div,
        ast::BinaryOp::Mod => BinOp::Mod,
        ast::BinaryOp::Concat => BinOp::Concat,
    }
}

/// Convert a literal AST node to a runtime value.
pub fn bind_literal(l: &ast::Literal) -> Result<Value> {
    Ok(match l {
        ast::Literal::Null => Value::Null,
        ast::Literal::Bool(b) => Value::Bool(*b),
        ast::Literal::Number(n) => {
            if n.contains('.') {
                Value::Float(
                    n.parse::<f64>()
                        .map_err(|_| Error::plan(format!("invalid numeric literal '{n}'")))?,
                )
            } else {
                Value::Int(
                    n.parse::<i64>()
                        .map_err(|_| Error::plan(format!("invalid integer literal '{n}'")))?,
                )
            }
        }
        ast::Literal::String(s) => Value::str(s.as_str()),
        ast::Literal::Interval { value, unit } => {
            let magnitude = value
                .trim()
                .parse::<i64>()
                .map_err(|_| Error::plan(format!("invalid INTERVAL magnitude '{value}'")))?;
            Value::Interval(Duration::from_millis(magnitude * unit.millis()))
        }
        ast::Literal::Timestamp(t) => Value::Ts(parse_clock_timestamp(t)?),
    })
}

/// Parse `H:MM`, `H:MM:SS`, or `H:MM:SS.mmm` clock timestamps (the notation
/// used throughout the paper), or a bare integer of epoch milliseconds.
pub fn parse_clock_timestamp(text: &str) -> Result<Ts> {
    let text = text.trim();
    if let Ok(ms) = text.parse::<i64>() {
        return Ok(Ts(ms));
    }
    let bad = || Error::plan(format!("invalid TIMESTAMP literal '{text}'"));
    let mut parts = text.split(':');
    let hours: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let minutes_part = parts.next().ok_or_else(bad)?;
    let minutes: i64 = minutes_part.parse().map_err(|_| bad())?;
    let mut millis = hours * 3_600_000 + minutes * 60_000;
    if let Some(sec_part) = parts.next() {
        let (secs, frac) = match sec_part.split_once('.') {
            Some((s, f)) => (s, Some(f)),
            None => (sec_part, None),
        };
        let secs: i64 = secs.parse().map_err(|_| bad())?;
        millis += secs * 1_000;
        if let Some(f) = frac {
            let padded = format!("{f:0<3}");
            let frac_ms: i64 = padded[..3].parse().map_err(|_| bad())?;
            millis += frac_ms;
        }
    }
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(Ts(millis))
}

/// Extract the aggregate argument AST, validating arity and `COUNT(*)`.
fn agg_argument(func: AggFunc, args: &[ast::Expr], distinct: bool) -> Result<Option<ast::Expr>> {
    match args {
        [ast::Expr::Wildcard] => {
            if func != AggFunc::Count {
                return Err(Error::plan(format!(
                    "'*' argument is only valid for COUNT, not {}",
                    func.name()
                )));
            }
            if distinct {
                return Err(Error::plan("COUNT(DISTINCT *) is not valid"));
            }
            Ok(None)
        }
        [arg] => Ok(Some(arg.clone())),
        _ => Err(Error::plan(format!(
            "{} takes exactly one argument",
            func.name()
        ))),
    }
}

/// Collect aggregate calls (deduplicated) from an expression tree. Nested
/// aggregates are rejected.
fn collect_aggregates(
    expr: &ast::Expr,
    out: &mut Vec<(AggFunc, Option<ast::Expr>, bool)>,
) -> Result<()> {
    collect_aggregates_inner(expr, out, false)
}

fn collect_aggregates_inner(
    expr: &ast::Expr,
    out: &mut Vec<(AggFunc, Option<ast::Expr>, bool)>,
    inside_agg: bool,
) -> Result<()> {
    match expr {
        ast::Expr::Function {
            name,
            args,
            distinct,
        } => {
            if let Some(func) = AggFunc::lookup(name) {
                if inside_agg {
                    return Err(Error::plan(format!(
                        "nested aggregate {name} is not allowed"
                    )));
                }
                let arg = agg_argument(func, args, *distinct)?;
                if let Some(a) = &arg {
                    collect_aggregates_inner(a, out, true)?;
                }
                let entry = (func, arg, *distinct);
                if !out.contains(&entry) {
                    out.push(entry);
                }
                return Ok(());
            }
            for a in args {
                collect_aggregates_inner(a, out, inside_agg)?;
            }
            Ok(())
        }
        ast::Expr::Column { .. } | ast::Expr::Literal(_) | ast::Expr::Wildcard => Ok(()),
        ast::Expr::Unary { expr, .. } => collect_aggregates_inner(expr, out, inside_agg),
        ast::Expr::Binary { left, right, .. } => {
            collect_aggregates_inner(left, out, inside_agg)?;
            collect_aggregates_inner(right, out, inside_agg)
        }
        ast::Expr::IsNull { expr, .. } => collect_aggregates_inner(expr, out, inside_agg),
        ast::Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates_inner(expr, out, inside_agg)?;
            collect_aggregates_inner(low, out, inside_agg)?;
            collect_aggregates_inner(high, out, inside_agg)
        }
        ast::Expr::InList { expr, list, .. } => {
            collect_aggregates_inner(expr, out, inside_agg)?;
            for e in list {
                collect_aggregates_inner(e, out, inside_agg)?;
            }
            Ok(())
        }
        ast::Expr::Like { expr, pattern, .. } => {
            collect_aggregates_inner(expr, out, inside_agg)?;
            collect_aggregates_inner(pattern, out, inside_agg)
        }
        ast::Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(op) = operand {
                collect_aggregates_inner(op, out, inside_agg)?;
            }
            for (w, t) in branches {
                collect_aggregates_inner(w, out, inside_agg)?;
                collect_aggregates_inner(t, out, inside_agg)?;
            }
            if let Some(e) = else_expr {
                collect_aggregates_inner(e, out, inside_agg)?;
            }
            Ok(())
        }
        ast::Expr::Cast { expr, .. } => collect_aggregates_inner(expr, out, inside_agg),
        ast::Expr::Subquery(_) | ast::Expr::Exists(_) => Ok(()),
    }
}

/// Cross join two plans (inner join with no keys).
fn cross_join(left: LogicalPlan, right: LogicalPlan) -> LogicalPlan {
    let schema = Arc::new(left.schema().join(&right.schema()));
    LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        kind: JoinKind::Inner,
        equi: vec![],
        residual: None,
        time_bound: None,
        schema,
    }
}

/// Split a bound join condition into equi-key pairs and a residual
/// predicate. `left_arity` separates left columns from right columns in the
/// joined schema.
pub fn split_join_condition(
    cond: ScalarExpr,
    left_arity: usize,
) -> (Vec<(usize, usize)>, Option<ScalarExpr>) {
    let mut conjuncts = Vec::new();
    flatten_conjuncts(cond, &mut conjuncts);
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        match &c {
            ScalarExpr::Binary { left, op, right } if *op == BinOp::Eq => {
                if let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (&**left, &**right) {
                    if *a < left_arity && *b >= left_arity {
                        equi.push((*a, *b - left_arity));
                        continue;
                    }
                    if *b < left_arity && *a >= left_arity {
                        equi.push((*b, *a - left_arity));
                        continue;
                    }
                }
                residual.push(c);
            }
            _ => residual.push(c),
        }
    }
    (equi, combine_conjuncts(residual))
}

/// Flatten nested ANDs into a conjunct list.
pub fn flatten_conjuncts(expr: ScalarExpr, out: &mut Vec<ScalarExpr>) {
    match expr {
        ScalarExpr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            flatten_conjuncts(*left, out);
            flatten_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// Rebuild an AND tree from conjuncts (None when empty).
pub fn combine_conjuncts(conjuncts: Vec<ScalarExpr>) -> Option<ScalarExpr> {
    let mut iter = conjuncts.into_iter();
    let first = iter.next()?;
    Some(iter.fold(first, |acc, c| ScalarExpr::binary(acc, BinOp::And, c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MemoryCatalog;

    fn catalog() -> MemoryCatalog {
        let mut cat = MemoryCatalog::new();
        cat.register(
            "Bid",
            Arc::new(Schema::new(vec![
                Field::event_time("bidtime"),
                Field::new("price", DataType::Int),
                Field::new("item", DataType::String),
            ])),
            TableKind::Stream,
        );
        cat.register(
            "Category",
            Arc::new(Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("name", DataType::String),
            ])),
            TableKind::Table,
        );
        cat
    }

    fn bind_sql(sql: &str) -> Result<BoundQuery> {
        let ast = onesql_sql::parse(sql)?;
        bind(&ast, &catalog())
    }

    #[test]
    fn bind_simple_projection() {
        let q = bind_sql("SELECT price, item FROM Bid WHERE price > 3").unwrap();
        let schema = q.schema();
        assert_eq!(schema.arity(), 2);
        assert_eq!(schema.field(0).unwrap().name, "price");
        assert!(q.plan.is_unbounded());
    }

    #[test]
    fn event_time_preserved_through_verbatim_projection() {
        let q = bind_sql("SELECT bidtime, price FROM Bid").unwrap();
        assert!(q.schema().field(0).unwrap().event_time);
        // Arithmetic on the event-time column degrades it (§5).
        let q = bind_sql("SELECT bidtime + INTERVAL '1' MINUTE AS t, price FROM Bid").unwrap();
        assert!(!q.schema().field(0).unwrap().event_time);
        assert_eq!(q.schema().field(0).unwrap().data_type, DataType::Timestamp);
    }

    #[test]
    fn wildcard_expansion() {
        let q = bind_sql("SELECT * FROM Bid").unwrap();
        assert_eq!(q.schema().arity(), 3);
        let q = bind_sql("SELECT B.* FROM Bid B").unwrap();
        assert_eq!(q.schema().arity(), 3);
        assert!(bind_sql("SELECT X.* FROM Bid B").is_err());
    }

    #[test]
    fn aliases_qualify_columns() {
        let q = bind_sql("SELECT B.price FROM Bid AS B").unwrap();
        assert_eq!(q.schema().field(0).unwrap().name, "price");
        assert!(bind_sql("SELECT Bid.price FROM Bid AS B").is_err());
    }

    #[test]
    fn unknown_column_and_table_errors() {
        assert!(bind_sql("SELECT nope FROM Bid").is_err());
        assert!(bind_sql("SELECT price FROM Nope").is_err());
    }

    #[test]
    fn tumble_binding() {
        let q = bind_sql(
            "SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), \
             dur => INTERVAL '10' MINUTE) AS T",
        )
        .unwrap();
        let schema = q.schema();
        assert_eq!(schema.arity(), 5);
        assert_eq!(schema.field(3).unwrap().name, "wstart");
        assert_eq!(schema.field(4).unwrap().name, "wend");
        assert!(schema.field(4).unwrap().event_time);
        let LogicalPlan::Project { input, .. } = &q.plan else {
            panic!()
        };
        let LogicalPlan::Window { kind, time_col, .. } = &**input else {
            panic!("expected window, got {input}")
        };
        assert_eq!(*time_col, 0);
        assert_eq!(
            *kind,
            WindowKind::Tumble {
                dur: Duration::from_minutes(10),
                offset: Duration::ZERO
            }
        );
    }

    #[test]
    fn hop_requires_hopsize() {
        assert!(bind_sql(
            "SELECT * FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), \
             dur => INTERVAL '10' MINUTE)"
        )
        .is_err());
        let q = bind_sql(
            "SELECT * FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), \
             dur => INTERVAL '10' MINUTE, hopsize => INTERVAL '5' MINUTE)",
        )
        .unwrap();
        assert_eq!(q.schema().arity(), 5);
    }

    #[test]
    fn tvf_arg_errors() {
        // Wrong timecol type.
        assert!(bind_sql(
            "SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(price), \
             dur => INTERVAL '10' MINUTE)"
        )
        .is_err());
        // Unknown parameter.
        assert!(bind_sql(
            "SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), \
             wrong => INTERVAL '10' MINUTE)"
        )
        .is_err());
        // Duplicate parameter.
        assert!(bind_sql(
            "SELECT * FROM Tumble(data => TABLE(Bid), data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE)"
        )
        .is_err());
        // Non-positive duration.
        assert!(bind_sql(
            "SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), \
             dur => INTERVAL '0' MINUTE)"
        )
        .is_err());
        // Unknown TVF.
        assert!(bind_sql("SELECT * FROM Wiggle(data => TABLE(Bid))").is_err());
    }

    #[test]
    fn group_by_event_time_detected() {
        let q = bind_sql(
            "SELECT wend, MAX(price) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
             GROUP BY wend",
        )
        .unwrap();
        let LogicalPlan::Project { input, .. } = &q.plan else {
            panic!()
        };
        let LogicalPlan::Aggregate { event_time_key, .. } = &**input else {
            panic!("expected aggregate, got {input}")
        };
        assert_eq!(*event_time_key, Some(0));
        // Output wend keeps its event-time flag.
        assert!(q.schema().field(0).unwrap().event_time);
    }

    #[test]
    fn group_by_non_event_time_is_retraction_mode() {
        let q = bind_sql("SELECT item, SUM(price) FROM Bid GROUP BY item").unwrap();
        let LogicalPlan::Project { input, .. } = &q.plan else {
            panic!()
        };
        let LogicalPlan::Aggregate { event_time_key, .. } = &**input else {
            panic!()
        };
        assert_eq!(*event_time_key, None);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = bind_sql("SELECT item, price FROM Bid GROUP BY item").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn aggregate_dedup_and_having() {
        let q = bind_sql(
            "SELECT item, SUM(price), SUM(price) + 1 FROM Bid GROUP BY item \
             HAVING SUM(price) > 10",
        )
        .unwrap();
        // One SUM shared by all three uses.
        let aggs = q.plan.nodes().into_iter().find_map(|node| match node {
            LogicalPlan::Aggregate { aggs, .. } => Some(aggs.len()),
            _ => None,
        });
        assert_eq!(aggs, Some(1));
    }

    #[test]
    fn count_star_and_distinct() {
        let q = bind_sql("SELECT item, COUNT(*), COUNT(DISTINCT price) FROM Bid GROUP BY item")
            .unwrap();
        assert_eq!(q.schema().arity(), 3);
        assert!(bind_sql("SELECT MAX(*) FROM Bid").is_err());
        assert!(bind_sql("SELECT SUM(item) FROM Bid GROUP BY item").is_err());
    }

    #[test]
    fn global_aggregate() {
        let q = bind_sql("SELECT MAX(price), COUNT(*) FROM Bid").unwrap();
        assert_eq!(q.schema().arity(), 2);
        let LogicalPlan::Project { input, .. } = &q.plan else {
            panic!()
        };
        assert!(matches!(
            &**input,
            LogicalPlan::Aggregate { group_exprs, .. } if group_exprs.is_empty()
        ));
    }

    #[test]
    fn nested_aggregate_rejected() {
        assert!(bind_sql("SELECT MAX(SUM(price)) FROM Bid").is_err());
    }

    #[test]
    fn scalar_subquery_in_where_becomes_cross_join() {
        let q = bind_sql("SELECT price, item FROM Bid WHERE price = (SELECT MAX(price) FROM Bid)")
            .unwrap();
        // Expect Project(Filter(Join(Bid, Aggregate))).
        let LogicalPlan::Project { input, .. } = &q.plan else {
            panic!()
        };
        let LogicalPlan::Filter { input, .. } = &**input else {
            panic!()
        };
        assert!(matches!(&**input, LogicalPlan::Join { .. }));
        // Multi-column subquery rejected.
        assert!(
            bind_sql("SELECT price FROM Bid WHERE price = (SELECT price, item FROM Bid)").is_err()
        );
        // Subquery in SELECT list unsupported.
        assert!(bind_sql("SELECT (SELECT MAX(price) FROM Bid) FROM Bid").is_err());
    }

    #[test]
    fn emit_binding() {
        let q = bind_sql("SELECT * FROM Bid EMIT STREAM").unwrap();
        assert!(q.emit.stream);
        let q = bind_sql("SELECT * FROM Bid EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES").unwrap();
        assert_eq!(q.emit.delay, Some(Duration::from_minutes(6)));
        assert!(bind_sql("SELECT * FROM Bid EMIT AFTER DELAY 5").is_err());
    }

    #[test]
    fn emit_rejected_in_subquery() {
        assert!(bind_sql("SELECT * FROM (SELECT * FROM Bid EMIT STREAM) X").is_err());
    }

    #[test]
    fn order_by_binds_against_output_aliases() {
        let q =
            bind_sql("SELECT item, SUM(price) AS total FROM Bid GROUP BY item ORDER BY total DESC")
                .unwrap();
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.order_by[0].expr, ScalarExpr::Column(1));
    }

    #[test]
    fn join_condition_split() {
        let q =
            bind_sql("SELECT B.price FROM Bid B JOIN Category C ON B.price = C.id AND B.price > 5")
                .unwrap();
        let join = q.plan.nodes().into_iter().find_map(|node| match node {
            LogicalPlan::Join { equi, residual, .. } => Some((equi, residual.is_some())),
            _ => None,
        });
        let (equi, has_residual) = join.unwrap();
        assert_eq!(equi, &vec![(1, 0)]);
        assert!(has_residual);
    }

    #[test]
    fn as_of_only_on_tables() {
        assert!(bind_sql("SELECT * FROM Bid AS OF SYSTEM TIME TIMESTAMP '8:00'").is_err());
        let q = bind_sql("SELECT * FROM Category AS OF SYSTEM TIME TIMESTAMP '8:00'").unwrap();
        let LogicalPlan::Project { input, .. } = &q.plan else {
            panic!()
        };
        assert!(matches!(
            &**input,
            LogicalPlan::Scan { as_of: Some(t), .. } if *t == Ts::hm(8, 0)
        ));
    }

    #[test]
    fn clock_timestamp_parsing() {
        assert_eq!(parse_clock_timestamp("8:07").unwrap(), Ts::hm(8, 7));
        assert_eq!(
            parse_clock_timestamp("8:07:30").unwrap(),
            Ts(Ts::hm(8, 7).millis() + 30_000)
        );
        assert_eq!(parse_clock_timestamp("0:00:00.250").unwrap(), Ts(250));
        assert_eq!(parse_clock_timestamp("1234").unwrap(), Ts(1234));
        assert!(parse_clock_timestamp("nope").is_err());
        assert!(parse_clock_timestamp("1:2:3:4").is_err());
    }

    #[test]
    fn union_all_schema_check() {
        assert!(bind_sql("SELECT price FROM Bid UNION ALL SELECT item FROM Bid").is_err());
        assert!(bind_sql("SELECT price FROM Bid UNION ALL SELECT price, item FROM Bid").is_err());
        let q = bind_sql("SELECT price FROM Bid UNION ALL SELECT price FROM Bid").unwrap();
        assert_eq!(q.schema().arity(), 1);
    }

    #[test]
    fn between_desugars() {
        let q = bind_sql("SELECT price FROM Bid WHERE price BETWEEN 2 AND 4").unwrap();
        let filter = q.plan.nodes().into_iter().find_map(|node| match node {
            LogicalPlan::Filter { predicate, .. } => Some(predicate.to_string()),
            _ => None,
        });
        let pred = filter.unwrap();
        assert!(pred.contains(">="), "{pred}");
        assert!(pred.contains("<="), "{pred}");
    }

    #[test]
    fn full_q7_binds() {
        let sql = "
            SELECT MaxBid.wstart, MaxBid.wend, Bid.bidtime, Bid.price, Bid.item
            FROM Bid,
              (SELECT MAX(TumbleBid.price) maxPrice,
                      MAX(TumbleBid.wstart) wstart, TumbleBid.wend wend
               FROM Tumble(data => TABLE(Bid),
                           timecol => DESCRIPTOR(bidtime),
                           dur => INTERVAL '10' MINUTE) TumbleBid
               GROUP BY TumbleBid.wend) MaxBid
            WHERE Bid.price = MaxBid.maxPrice AND
                  Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND
                  Bid.bidtime < MaxBid.wend";
        let q = bind_sql(sql).unwrap();
        assert_eq!(q.schema().arity(), 5);
        assert!(q.plan.is_unbounded());
        // wstart came out of MAX() so it is degraded; wend is verbatim.
        assert!(!q.schema().field(0).unwrap().event_time);
        assert!(q.schema().field(1).unwrap().event_time);
    }
}
