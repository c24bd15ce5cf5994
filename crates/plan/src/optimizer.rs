//! Logical plan optimizer: rule-based rewrites to a fixpoint.
//!
//! Classic rules (constant folding, filter merging, predicate pushdown into
//! and through joins/windows) plus the streaming-specific *time-bound
//! recognition* rule: a residual join predicate constraining two event-time
//! columns to a bounded interval lets the executor free join state once
//! watermarks pass (§5, lesson 1 — "state can be freed when the watermark is
//! sufficiently advanced").

use std::sync::Arc;

use onesql_types::{Row, Value};

use crate::binder::{combine_conjuncts, flatten_conjuncts};
use crate::expr::{BinOp, ScalarExpr};
use crate::plan::{BoundQuery, JoinKind, JoinTimeBound, LogicalPlan};

/// Optimize a bound query. Applies rules bottom-up until no rule fires
/// (bounded by a generous iteration cap).
pub fn optimize(mut query: BoundQuery) -> BoundQuery {
    const MAX_PASSES: usize = 16;
    for _ in 0..MAX_PASSES {
        let (plan, changed) = rewrite(query.plan);
        query.plan = plan;
        if !changed {
            break;
        }
    }
    query
}

/// One bottom-up rewrite pass. Returns the new plan and whether anything
/// changed.
fn rewrite(plan: LogicalPlan) -> (LogicalPlan, bool) {
    // Rewrite children first.
    let (plan, mut changed) = rewrite_children(plan);
    // Then try each rule at this node.
    let mut node = plan;
    for rule in [
        fold_constants_rule,
        merge_filters_rule,
        push_filter_into_join_rule,
        push_filter_through_window_rule,
        simplify_trivial_filter_rule,
        extract_time_bound_rule,
    ] {
        if let Some(new_node) = rule(&node) {
            node = new_node;
            changed = true;
        }
    }
    (node, changed)
}

fn rewrite_children(plan: LogicalPlan) -> (LogicalPlan, bool) {
    macro_rules! one {
        ($variant:ident, $input:ident, $($field:ident),*) => {{
            let (new_input, changed) = rewrite(*$input);
            (
                LogicalPlan::$variant {
                    input: Box::new(new_input),
                    $($field),*
                },
                changed,
            )
        }};
    }
    match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => (plan, false),
        LogicalPlan::Filter { input, predicate } => one!(Filter, input, predicate),
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => one!(Project, input, exprs, schema),
        LogicalPlan::Window {
            input,
            kind,
            time_col,
            schema,
        } => one!(Window, input, kind, time_col, schema),
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
            event_time_key,
        } => one!(Aggregate, input, group_exprs, aggs, schema, event_time_key),
        LogicalPlan::Distinct { input } => one!(Distinct, input,),
        LogicalPlan::Join {
            left,
            right,
            kind,
            equi,
            residual,
            time_bound,
            schema,
        } => {
            let (l, cl) = rewrite(*left);
            let (r, cr) = rewrite(*right);
            (
                LogicalPlan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    kind,
                    equi,
                    residual,
                    time_bound,
                    schema,
                },
                cl || cr,
            )
        }
        LogicalPlan::UnionAll { left, right } => {
            let (l, cl) = rewrite(*left);
            let (r, cr) = rewrite(*right);
            (
                LogicalPlan::UnionAll {
                    left: Box::new(l),
                    right: Box::new(r),
                },
                cl || cr,
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: constant folding inside expressions.
// ---------------------------------------------------------------------------

fn fold_constants_rule(plan: &LogicalPlan) -> Option<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let folded = fold_expr(predicate);
            (folded != *predicate).then(|| LogicalPlan::Filter {
                input: input.clone(),
                predicate: folded,
            })
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let folded: Vec<ScalarExpr> = exprs.iter().map(fold_expr).collect();
            (folded != *exprs).then(|| LogicalPlan::Project {
                input: input.clone(),
                exprs: folded,
                schema: Arc::clone(schema),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            equi,
            residual: Some(residual),
            time_bound,
            schema,
        } => {
            let folded = fold_expr(residual);
            (folded != *residual).then(|| LogicalPlan::Join {
                left: left.clone(),
                right: right.clone(),
                kind: *kind,
                equi: equi.clone(),
                residual: Some(folded),
                time_bound: *time_bound,
                schema: Arc::clone(schema),
            })
        }
        _ => None,
    }
}

/// Fold constant subexpressions by evaluating them against the empty row.
/// Expressions that error at fold time (e.g. `1/0`) are left intact so the
/// error surfaces at execution, as SQL requires.
pub fn fold_expr(expr: &ScalarExpr) -> ScalarExpr {
    // First fold children.
    let folded = match expr {
        ScalarExpr::Column(_) | ScalarExpr::Literal(_) => expr.clone(),
        ScalarExpr::Not(e) => ScalarExpr::Not(Box::new(fold_expr(e))),
        ScalarExpr::Neg(e) => ScalarExpr::Neg(Box::new(fold_expr(e))),
        ScalarExpr::Binary { left, op, right } => ScalarExpr::Binary {
            left: Box::new(fold_expr(left)),
            op: *op,
            right: Box::new(fold_expr(right)),
        },
        ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
            expr: Box::new(fold_expr(expr)),
            negated: *negated,
        },
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => ScalarExpr::InList {
            expr: Box::new(fold_expr(expr)),
            list: list.iter().map(fold_expr).collect(),
            negated: *negated,
        },
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => ScalarExpr::Like {
            expr: Box::new(fold_expr(expr)),
            pattern: Box::new(fold_expr(pattern)),
            negated: *negated,
        },
        ScalarExpr::Case {
            branches,
            else_expr,
        } => ScalarExpr::Case {
            branches: branches
                .iter()
                .map(|(c, r)| (fold_expr(c), fold_expr(r)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(fold_expr(e))),
        },
        ScalarExpr::Cast { expr, to } => ScalarExpr::Cast {
            expr: Box::new(fold_expr(expr)),
            to: *to,
        },
        ScalarExpr::ScalarFn { func, args } => ScalarExpr::ScalarFn {
            func: *func,
            args: args.iter().map(fold_expr).collect(),
        },
    };
    // Then collapse if constant and evaluable.
    if !matches!(folded, ScalarExpr::Literal(_)) && folded.is_constant() {
        if let Ok(v) = folded.eval(&Row::empty()) {
            return ScalarExpr::Literal(v);
        }
    }
    folded
}

// ---------------------------------------------------------------------------
// Rule: merge stacked filters.
// ---------------------------------------------------------------------------

fn merge_filters_rule(plan: &LogicalPlan) -> Option<LogicalPlan> {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return None;
    };
    let LogicalPlan::Filter {
        input: inner_input,
        predicate: inner_pred,
    } = &**input
    else {
        return None;
    };
    Some(LogicalPlan::Filter {
        input: inner_input.clone(),
        predicate: ScalarExpr::binary(inner_pred.clone(), BinOp::And, predicate.clone()),
    })
}

// ---------------------------------------------------------------------------
// Rule: drop `WHERE TRUE`; `WHERE FALSE` becomes an empty relation.
// ---------------------------------------------------------------------------

fn simplify_trivial_filter_rule(plan: &LogicalPlan) -> Option<LogicalPlan> {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return None;
    };
    match predicate {
        ScalarExpr::Literal(Value::Bool(true)) => Some((**input).clone()),
        ScalarExpr::Literal(Value::Bool(false)) | ScalarExpr::Literal(Value::Null) => {
            Some(LogicalPlan::Values {
                rows: vec![],
                schema: input.schema(),
            })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Rule: push filter conjuncts into / through a join.
// ---------------------------------------------------------------------------

fn push_filter_into_join_rule(plan: &LogicalPlan) -> Option<LogicalPlan> {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return None;
    };
    let LogicalPlan::Join {
        left,
        right,
        kind,
        equi,
        residual,
        time_bound,
        schema,
    } = &**input
    else {
        return None;
    };
    // Left-outer joins must not have WHERE conjuncts pushed into the join
    // condition or right side (they would change NULL-extension semantics).
    if *kind != JoinKind::Inner {
        return None;
    }
    let left_arity = left.schema().arity();

    let mut conjuncts = Vec::new();
    flatten_conjuncts(predicate.clone(), &mut conjuncts);
    if let Some(r) = residual {
        flatten_conjuncts(r.clone(), &mut conjuncts);
    }

    let mut to_left = Vec::new();
    let mut to_right = Vec::new();
    let mut new_equi = equi.clone();
    let mut remaining = Vec::new();

    for c in conjuncts {
        let cols = c.referenced_columns();
        let all_left = cols.iter().all(|&i| i < left_arity);
        let all_right = cols.iter().all(|&i| i >= left_arity);
        if all_left && !cols.is_empty() {
            to_left.push(c);
        } else if all_right && !cols.is_empty() {
            to_right.push(c.remap_columns(&|i| i - left_arity));
        } else if let Some(pair) = as_equi_pair(&c, left_arity) {
            if !new_equi.contains(&pair) {
                new_equi.push(pair);
            }
        } else {
            remaining.push(c);
        }
    }

    if to_left.is_empty() && to_right.is_empty() && new_equi == *equi {
        // Nothing moved below the join; the rewrite is still useful when it
        // folds the Filter into the join residual (e.g. time bounds), but
        // only report a change if the shape actually changes — otherwise
        // the optimizer would loop forever.
        let new_residual = combine_conjuncts(remaining);
        if new_residual == *residual || matches!((&new_residual, residual), (Some(_), Some(_))) {
            return None;
        }
        return Some(LogicalPlan::Join {
            left: left.clone(),
            right: right.clone(),
            kind: *kind,
            equi: new_equi,
            residual: new_residual,
            time_bound: *time_bound,
            schema: Arc::clone(schema),
        });
    }

    let new_left: LogicalPlan = match combine_conjuncts(to_left) {
        Some(p) => LogicalPlan::Filter {
            input: left.clone(),
            predicate: p,
        },
        None => (**left).clone(),
    };
    let new_right: LogicalPlan = match combine_conjuncts(to_right) {
        Some(p) => LogicalPlan::Filter {
            input: right.clone(),
            predicate: p,
        },
        None => (**right).clone(),
    };
    Some(LogicalPlan::Join {
        left: Box::new(new_left),
        right: Box::new(new_right),
        kind: *kind,
        equi: new_equi,
        residual: combine_conjuncts(remaining),
        time_bound: *time_bound,
        schema: Arc::clone(schema),
    })
}

fn as_equi_pair(expr: &ScalarExpr, left_arity: usize) -> Option<(usize, usize)> {
    let ScalarExpr::Binary { left, op, right } = expr else {
        return None;
    };
    if *op != BinOp::Eq {
        return None;
    }
    match (&**left, &**right) {
        (ScalarExpr::Column(a), ScalarExpr::Column(b)) => {
            if *a < left_arity && *b >= left_arity {
                Some((*a, *b - left_arity))
            } else if *b < left_arity && *a >= left_arity {
                Some((*b, *a - left_arity))
            } else {
                None
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Rule: push filter conjuncts through a window TVF.
// ---------------------------------------------------------------------------

fn push_filter_through_window_rule(plan: &LogicalPlan) -> Option<LogicalPlan> {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return None;
    };
    let LogicalPlan::Window {
        input: win_input,
        kind,
        time_col,
        schema,
    } = &**input
    else {
        return None;
    };
    let input_arity = win_input.schema().arity();

    let mut conjuncts = Vec::new();
    flatten_conjuncts(predicate.clone(), &mut conjuncts);
    let (below, above): (Vec<_>, Vec<_>) = conjuncts
        .into_iter()
        .partition(|c| c.referenced_columns().iter().all(|&i| i < input_arity));
    // `combine_conjuncts` yields None exactly when nothing pushes below.
    let below = combine_conjuncts(below)?;
    let pushed = LogicalPlan::Window {
        input: Box::new(LogicalPlan::Filter {
            input: win_input.clone(),
            predicate: below,
        }),
        kind: *kind,
        time_col: *time_col,
        schema: Arc::clone(schema),
    };
    Some(match combine_conjuncts(above) {
        Some(p) => LogicalPlan::Filter {
            input: Box::new(pushed),
            predicate: p,
        },
        None => pushed,
    })
}

// ---------------------------------------------------------------------------
// Rule: recognize time-bounded join predicates.
// ---------------------------------------------------------------------------

fn extract_time_bound_rule(plan: &LogicalPlan) -> Option<LogicalPlan> {
    let LogicalPlan::Join {
        left,
        right,
        kind,
        equi,
        residual: Some(residual),
        time_bound: None,
        schema,
    } = plan
    else {
        return None;
    };
    let left_arity = left.schema().arity();

    let mut conjuncts = Vec::new();
    flatten_conjuncts(residual.clone(), &mut conjuncts);

    // Collect candidate bounds: left_col cmp right_col + offset.
    // lower: left >= right + off; upper: left < right + off (or <=).
    let mut lower: Option<(usize, usize, onesql_types::Duration)> = None;
    let mut upper: Option<(usize, usize, onesql_types::Duration, bool)> = None;
    for c in &conjuncts {
        let Some((l, op, r, off)) = as_time_comparison(c, left_arity) else {
            continue;
        };
        // Only event-time columns qualify: cleanup relies on watermarks.
        let l_ok = schema.field(l).map(|f| f.event_time).unwrap_or(false);
        let r_ok = schema
            .field(left_arity + r)
            .map(|f| f.event_time)
            .unwrap_or(false);
        if !l_ok || !r_ok {
            continue;
        }
        match op {
            BinOp::GtEq => lower = lower.or(Some((l, r, off))),
            BinOp::Lt => upper = upper.or(Some((l, r, off, false))),
            BinOp::LtEq => upper = upper.or(Some((l, r, off, true))),
            _ => {}
        }
    }
    let (ll, lr, lo) = lower?;
    let (ul, ur, uo, ui) = upper?;
    if ll != ul || lr != ur || lo > uo {
        return None;
    }
    Some(LogicalPlan::Join {
        left: left.clone(),
        right: right.clone(),
        kind: *kind,
        equi: equi.clone(),
        residual: Some(residual.clone()),
        time_bound: Some(JoinTimeBound {
            left_col: ll,
            right_col: lr,
            lower: lo,
            upper: uo,
            upper_inclusive: ui,
        }),
        schema: Arc::clone(schema),
    })
}

/// Normalize a conjunct to `left_col OP right_col + offset` where `left_col`
/// is on the join's left side and `right_col` on its right. Handles the
/// shapes `L op R`, `L op R ± d`, and the flipped `R ± d op L` / `R op L`.
fn as_time_comparison(
    expr: &ScalarExpr,
    left_arity: usize,
) -> Option<(usize, BinOp, usize, onesql_types::Duration)> {
    let ScalarExpr::Binary { left, op, right } = expr else {
        return None;
    };
    let op = *op;
    if !matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) {
        return None;
    }
    let (a, a_off) = as_col_plus_offset(left)?;
    let (b, b_off) = as_col_plus_offset(right)?;
    // Want the left-side column on the left of the comparison.
    let (l, r, off, op) = if a < left_arity && b >= left_arity {
        // a op b + (b_off - a_off)
        (a, b - left_arity, b_off - a_off, op)
    } else if b < left_arity && a >= left_arity {
        // a + a_off op b + b_off  ⇒  b flip(op) a + (a_off - b_off)
        let flipped = match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            _ => unreachable!(),
        };
        (b, a - left_arity, a_off - b_off, flipped)
    } else {
        return None;
    };
    // Normalize strict lower bounds: `left > right + off` ⇒
    // `left >= right + off + 1ms` (millisecond-exact domain).
    let (op, off) = match op {
        BinOp::Gt => (BinOp::GtEq, onesql_types::Duration(off.millis() + 1)),
        other => (other, off),
    };
    Some((l, op, r, off))
}

/// Match `Column(i)` or `Column(i) ± INTERVAL-literal`, returning the column
/// and net offset.
fn as_col_plus_offset(expr: &ScalarExpr) -> Option<(usize, onesql_types::Duration)> {
    match expr {
        ScalarExpr::Column(i) => Some((*i, onesql_types::Duration::ZERO)),
        ScalarExpr::Binary { left, op, right } => {
            let ScalarExpr::Column(i) = **left else {
                return None;
            };
            let ScalarExpr::Literal(Value::Interval(d)) = **right else {
                return None;
            };
            match op {
                BinOp::Plus => Some((i, d)),
                BinOp::Minus => Some((i, onesql_types::Duration(-d.millis()))),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MemoryCatalog, TableKind};
    use onesql_types::{DataType, Duration, Field, Schema};

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
        cat
    }

    fn plan_sql(sql: &str) -> BoundQuery {
        crate::plan_sql(sql, &catalog()).unwrap()
    }

    fn find_join(plan: &LogicalPlan) -> Option<&LogicalPlan> {
        let join = |node: &&LogicalPlan| matches!(node, LogicalPlan::Join { .. });
        plan.nodes().into_iter().find(join)
    }

    #[test]
    fn constant_folding() {
        let e = ScalarExpr::binary(
            ScalarExpr::lit(1i64),
            BinOp::Plus,
            ScalarExpr::binary(ScalarExpr::lit(2i64), BinOp::Mul, ScalarExpr::lit(3i64)),
        );
        assert_eq!(fold_expr(&e), ScalarExpr::lit(7i64));
        // Non-constant parts preserved.
        let e = ScalarExpr::binary(
            ScalarExpr::col(0),
            BinOp::Plus,
            ScalarExpr::binary(ScalarExpr::lit(2i64), BinOp::Mul, ScalarExpr::lit(3i64)),
        );
        assert_eq!(
            fold_expr(&e),
            ScalarExpr::binary(ScalarExpr::col(0), BinOp::Plus, ScalarExpr::lit(6i64))
        );
        // Division by zero left for runtime.
        let e = ScalarExpr::binary(ScalarExpr::lit(1i64), BinOp::Div, ScalarExpr::lit(0i64));
        assert_eq!(fold_expr(&e), e);
    }

    #[test]
    fn where_true_removed() {
        let q = plan_sql("SELECT price FROM Bid WHERE 1 = 1");
        // The WHERE should fold to TRUE and be removed: Project(Scan).
        let LogicalPlan::Project { input, .. } = &q.plan else {
            panic!()
        };
        assert!(matches!(&**input, LogicalPlan::Scan { .. }), "{input}");
    }

    #[test]
    fn where_false_becomes_empty_values() {
        let q = plan_sql("SELECT price FROM Bid WHERE 1 = 2");
        let LogicalPlan::Project { input, .. } = &q.plan else {
            panic!()
        };
        assert!(
            matches!(&**input, LogicalPlan::Values { rows, .. } if rows.is_empty()),
            "{input}"
        );
    }

    #[test]
    fn comma_join_where_becomes_equi_join() {
        let q = plan_sql(
            "SELECT a.price FROM Bid a, Bid b \
             WHERE a.price = b.price AND a.item = 'x' AND b.price > 2",
        );
        let join = find_join(&q.plan).unwrap();
        let LogicalPlan::Join {
            left,
            right,
            equi,
            residual,
            ..
        } = join
        else {
            panic!()
        };
        assert_eq!(equi, &vec![(1, 1)]);
        assert!(residual.is_none(), "residual: {residual:?}");
        // Side predicates pushed below the join.
        assert!(matches!(&**left, LogicalPlan::Filter { .. }), "{left}");
        assert!(matches!(&**right, LogicalPlan::Filter { .. }), "{right}");
    }

    #[test]
    fn filter_pushed_through_window() {
        let q = plan_sql(
            "SELECT wend, MAX(price) FROM Tumble(data => TABLE(Bid), \
             timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) \
             WHERE price > 2 AND wend > TIMESTAMP '8:10' GROUP BY wend",
        );
        // Expect: the price predicate sits below the Window node.
        let filtered = |node: &&LogicalPlan| match node {
            LogicalPlan::Window { input, .. } => matches!(&**input, LogicalPlan::Filter { .. }),
            _ => false,
        };
        assert!(q.plan.nodes().iter().any(filtered), "{}", q.plan);
    }

    #[test]
    fn q7_time_bound_recognized() {
        let q = plan_sql(
            "SELECT MaxBid.wend, Bid.bidtime, Bid.price, Bid.item
             FROM Bid,
               (SELECT MAX(T.price) maxPrice, T.wend wend
                FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
                            dur => INTERVAL '10' MINUTE) T
                GROUP BY T.wend) MaxBid
             WHERE Bid.price = MaxBid.maxPrice AND
                   Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE AND
                   Bid.bidtime < MaxBid.wend",
        );
        let join = find_join(&q.plan).unwrap();
        let LogicalPlan::Join {
            equi, time_bound, ..
        } = join
        else {
            panic!()
        };
        // price = maxPrice became an equi key.
        assert_eq!(equi, &vec![(1, 0)]);
        let tb = time_bound.expect("time bound should be recognized");
        assert_eq!(tb.left_col, 0); // Bid.bidtime
        assert_eq!(tb.right_col, 1); // MaxBid.wend
        assert_eq!(tb.lower, Duration::from_minutes(-10));
        assert_eq!(tb.upper, Duration::ZERO);
        assert!(!tb.upper_inclusive);
    }

    #[test]
    fn non_event_time_columns_get_no_time_bound() {
        // price vs price: not event time, no bound.
        let q = plan_sql(
            "SELECT a.item FROM Bid a, Bid b \
             WHERE a.item = b.item AND a.price >= b.price - 10 AND a.price < b.price",
        );
        let join = find_join(&q.plan).unwrap();
        let LogicalPlan::Join { time_bound, .. } = join else {
            panic!()
        };
        assert!(time_bound.is_none());
    }

    #[test]
    fn merge_filters() {
        // Build Filter(Filter(Scan)) manually and check the rule merges.
        let scan = LogicalPlan::Scan {
            table: "Bid".into(),
            schema: Arc::new(Schema::new(vec![Field::new("x", DataType::Int)])),
            kind: TableKind::Stream,
            as_of: None,
            retracts: true,
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan),
                predicate: ScalarExpr::binary(ScalarExpr::col(0), BinOp::Gt, ScalarExpr::lit(1i64)),
            }),
            predicate: ScalarExpr::binary(ScalarExpr::col(0), BinOp::Lt, ScalarExpr::lit(10i64)),
        };
        let (rewritten, changed) = rewrite(plan);
        assert!(changed);
        let LogicalPlan::Filter { input, .. } = &rewritten else {
            panic!()
        };
        assert!(matches!(&**input, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn optimizer_terminates_and_is_idempotent() {
        let q = plan_sql(
            "SELECT item, SUM(price) FROM Bid WHERE price > 0 GROUP BY item \
             HAVING SUM(price) < 100",
        );
        let again = optimize(q.clone());
        assert_eq!(q, again);
    }
}
